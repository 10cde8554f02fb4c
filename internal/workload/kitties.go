package workload

import (
	"fmt"
	"math/rand"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// KittiesConfig parameterizes the ScalableKitties replay (§VII-A).
//
// The paper replays the real CryptoKitties transaction history; this
// reproduction synthesizes a trace with the same structure (promotional
// creations, sire approvals, breed + giveBirth pairs, the Fig. 4
// dependency DAG) — see DESIGN.md, substitutions. LocalityBias controls
// how often breeding partners share a shard, calibrated so the realized
// cross-shard rates match the paper's 5.9-7.9 % (§VII-A).
type KittiesConfig struct {
	Shards    int
	Users     int
	PromoCats int
	Breeds    int
	// LocalityBias is the probability that a breeding partner is drawn
	// from the first cat's shard.
	LocalityBias float64
	// OutstandingLimit caps in-flight transactions per shard (250 in the
	// paper: the client keeps up to that many outgoing transactions per
	// shard connection, Fig. 5 right).
	OutstandingLimit int
	// ShardCapacity caps transactions per block, modeling the ~35 tx/s a
	// 10-validator Burrow shard sustains in the paper's cluster.
	ShardCapacity int
	Seed          int64
	// MaxDuration aborts a replay that stops making progress.
	MaxDuration time.Duration
	// State, if non-zero, selects every shard's state-storage options
	// (backend kind, storage-tree residency cap) — the
	// bounded-RSS replay runs on the file backend through this.
	State state.Options
}

// DefaultKittiesConfig returns a scaled-down replay preserving the paper's
// trace structure.
func DefaultKittiesConfig(shards int) KittiesConfig {
	return KittiesConfig{
		Shards:           shards,
		Users:            64,
		PromoCats:        300,
		Breeds:           900,
		LocalityBias:     0.93,
		OutstandingLimit: 250,
		ShardCapacity:    175,
		Seed:             5,
		MaxDuration:      4 * time.Hour,
	}
}

// KittiesResult aggregates the replay measurements.
type KittiesResult struct {
	Config KittiesConfig
	// Throughput is committed successful transactions per second over the
	// replay (Fig. 5 left).
	Throughput float64
	// Timeline is the committed-transaction rate over time (Fig. 5 right).
	Timeline *metrics.Timeline
	// CrossRate is the fraction of breed operations that needed a move
	// (the cross-blockchain transaction rates quoted in §VII-B).
	CrossRate float64
	// StarvedAt records, per shard, when its in-flight transaction count
	// first hit zero while work remained (the "limit reached" markers of
	// Fig. 5 right); absent shards never starved.
	StarvedAt map[hashing.ChainID]time.Duration
	// SimDuration is the simulated time the replay took.
	SimDuration time.Duration
	// PlannedOps is the number of operations the synthesizer emitted (it
	// skips infeasible pairings, e.g. when a user's cats are all siblings).
	PlannedOps                            int
	OpsCompleted, FailedOps, TxsCommitted int
}

// trace structures.

type opKind uint8

const (
	opPromo opKind = iota + 1
	opBreed
)

type traceOp struct {
	id         int
	kind       opKind
	cat        int // promo: the cat created
	catA, catB int // breed parents
	child      int
	waiting    int
	dependents []int
}

type traceCat struct {
	owner     int // user index
	homeShard int // promo cats: hash partition; children: birth shard
	createdBy int // op id
	parents   [2]int
	lastOp    int // last op touching this cat (serialization dep)
}

// synthesize builds the operation DAG.
//
// Cats live on their owner's shard (users operate where their contracts
// are), so breeding two of one's own cats is a single-shard affair with no
// siring approval, while breeding with another user's cat needs an
// approval and — whenever the owners live on different shards — a move.
// Only those cross operations serialize per cat; own-cat breeds touch no
// shared mutable state (pregnancies get fresh ids) and run concurrently,
// which is what gives the real trace its replay parallelism.
func synthesize(cfg KittiesConfig, rng *rand.Rand) ([]*traceOp, []*traceCat) {
	ops := make([]*traceOp, 0, cfg.PromoCats+cfg.Breeds)
	cats := make([]*traceCat, 0, cfg.PromoCats+cfg.Breeds)
	byOwner := make([][]int, cfg.Users)
	lastAny := make([]int, 0, cfg.PromoCats+cfg.Breeds)   // last op touching the cat
	lastCross := make([]int, 0, cfg.PromoCats+cfg.Breeds) // last cross op touching it

	ownerShard := func(owner int) int {
		return int(hashing.Sum([]byte{byte(owner), byte(owner >> 8), 0x05}).Bytes()[0]) % cfg.Shards
	}
	addDep := func(op *traceOp, dep int) {
		if dep < 0 {
			return
		}
		ops[dep].dependents = append(ops[dep].dependents, op.id)
		op.waiting++
	}

	for i := 0; i < cfg.PromoCats; i++ {
		owner := i % cfg.Users
		op := &traceOp{id: len(ops), kind: opPromo, cat: i}
		ops = append(ops, op)
		cats = append(cats, &traceCat{
			owner:     owner,
			homeShard: ownerShard(owner),
			createdBy: op.id,
			parents:   [2]int{-1, -1},
			lastOp:    op.id,
		})
		byOwner[owner] = append(byOwner[owner], i)
		lastAny = append(lastAny, op.id)
		lastCross = append(lastCross, -1)
	}

	pickFrom := func(pool []int, exclude int) int {
		for tries := 0; tries < 16; tries++ {
			c := pool[rng.Intn(len(pool))]
			if c != exclude {
				return c
			}
		}
		return -1
	}

	for b := 0; b < cfg.Breeds; b++ {
		owner := rng.Intn(cfg.Users)
		pool := byOwner[owner]
		if len(pool) < 1 {
			continue
		}
		a := pool[rng.Intn(len(pool))]
		own := rng.Float64() < cfg.LocalityBias && len(pool) >= 2
		var bIdx int
		if own {
			bIdx = pickFrom(pool, a)
		} else {
			other := rng.Intn(cfg.Users)
			if other == owner || len(byOwner[other]) == 0 {
				continue
			}
			bIdx = pickFrom(byOwner[other], a)
		}
		if bIdx < 0 || related(cats, a, bIdx) {
			continue
		}
		child := len(cats)
		op := &traceOp{id: len(ops), kind: opBreed, catA: a, catB: bIdx, child: child}
		ops = append(ops, op)
		if own {
			// Own-cat breed: wait only for the cats to exist and for any
			// pending cross operation that may be relocating them.
			deps := map[int]bool{
				cats[a].createdBy: true, cats[bIdx].createdBy: true,
			}
			if lastCross[a] >= 0 {
				deps[lastCross[a]] = true
			}
			if lastCross[bIdx] >= 0 {
				deps[lastCross[bIdx]] = true
			}
			for d := range deps {
				addDep(op, d)
			}
		} else {
			// Cross breed: approval and possibly a move — serialize with
			// everything touching either cat (the Fig. 4 chain).
			deps := map[int]bool{lastAny[a]: true, lastAny[bIdx]: true}
			for d := range deps {
				addDep(op, d)
			}
			lastCross[a], lastCross[bIdx] = op.id, op.id
		}
		lastAny[a], lastAny[bIdx] = op.id, op.id
		cats = append(cats, &traceCat{
			owner:     owner,
			homeShard: cats[a].homeShard,
			createdBy: op.id,
			parents:   [2]int{a, bIdx},
			lastOp:    op.id,
		})
		byOwner[owner] = append(byOwner[owner], child)
		lastAny = append(lastAny, op.id)
		lastCross = append(lastCross, -1)
	}
	return ops, cats
}

// related reports whether two cats share a parent or form a parent-child
// pair.
func related(cats []*traceCat, a, b int) bool {
	for _, pa := range cats[a].parents {
		if pa < 0 {
			continue
		}
		if pa == b {
			return true
		}
		for _, pb := range cats[b].parents {
			if pa == pb {
				return true
			}
		}
	}
	for _, pb := range cats[b].parents {
		if pb == a {
			return true
		}
	}
	return false
}

// runtime cat state.
type liveCat struct {
	addr  hashing.Address
	salt  uint64
	shard hashing.ChainID
}

type kittiesRun struct {
	cfg  KittiesConfig
	u    *universe.Universe
	rng  *rand.Rand
	res  *KittiesResult
	ops  []*traceOp
	cats []*traceCat
	live []liveCat

	registry  hashing.Address
	gameOwner *relay.Client

	ready       []int
	outstanding int
	inFlight    map[hashing.ChainID]int
	opsLeft     int
	crossBreeds int
	breeds      int
	startAt     time.Duration
}

// inspectUniverse, when set, is handed every universe RunKitties and
// RunShardedScaling build, before the run starts; tests attach block
// listeners through it.
var inspectUniverse func(*universe.Universe)

// RunKitties replays a synthetic CryptoKitties trace over sharded chains.
func RunKitties(cfg KittiesConfig) (*KittiesResult, error) {
	if cfg.Shards < 1 || cfg.Users < 1 || cfg.PromoCats < 2 {
		return nil, fmt.Errorf("workload: invalid kitties config")
	}
	if cfg.OutstandingLimit <= 0 {
		cfg.OutstandingLimit = 250
	}
	if cfg.ShardCapacity <= 0 {
		cfg.ShardCapacity = 175
	}
	registryAddr := contracts.WellKnown("kitties-registry")
	ucfg := universe.ShardedConfig(cfg.Shards, cfg.Users+1)
	ucfg.State = cfg.State
	for i := range ucfg.Specs {
		ucfg.Specs[i].Config.MaxBlockTxs = cfg.ShardCapacity
	}
	gameOwnerKey := universeClientAddress(cfg.Users) // client index Users
	ucfg.ExtraGenesis = func(_ hashing.ChainID, db *state.DB) {
		contracts.GenesisKittyRegistry(db, registryAddr, gameOwnerKey)
	}
	u, err := universe.New(ucfg)
	if err != nil {
		return nil, err
	}
	defer u.Close()
	if inspectUniverse != nil {
		inspectUniverse(u)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops, cats := synthesize(cfg, rng)
	r := &kittiesRun{
		cfg:  cfg,
		u:    u,
		rng:  rng,
		ops:  ops,
		cats: cats,
		live: make([]liveCat, len(cats)),
		res: &KittiesResult{
			Config:    cfg,
			Timeline:  metrics.NewTimeline(30 * time.Second),
			StarvedAt: make(map[hashing.ChainID]time.Duration),
		},
		registry:  registryAddr,
		gameOwner: u.Client(cfg.Users),
		inFlight:  make(map[hashing.ChainID]int),
		opsLeft:   len(ops),
	}
	u.Start()
	r.startAt = u.Sched.Now()
	r.res.PlannedOps = len(ops)

	for s := 0; s < cfg.Shards; s++ {
		c := u.Chain(shardID(s))
		c.OnBlock(func(_ *types.Block, receipts []*types.Receipt) {
			good := 0
			for _, rec := range receipts {
				if rec.Succeeded() {
					good++
				}
			}
			r.res.Timeline.Record(u.Sched.Now()-r.startAt, good)
			r.res.TxsCommitted += good
		})
	}

	for _, op := range ops {
		if op.waiting == 0 {
			r.ready = append(r.ready, op.id)
		}
	}
	r.pump()
	finished := u.RunUntil(func() bool { return r.opsLeft == 0 }, cfg.MaxDuration)
	r.res.SimDuration = u.Sched.Now() - r.startAt
	if r.res.SimDuration > 0 {
		r.res.Throughput = float64(r.res.TxsCommitted) / r.res.SimDuration.Seconds()
	}
	if r.breeds > 0 {
		r.res.CrossRate = float64(r.crossBreeds) / float64(r.breeds)
	}
	if !finished {
		return r.res, fmt.Errorf("workload: kitties replay stalled with %d ops left", r.opsLeft)
	}
	return r.res, nil
}

// universeClientAddress precomputes the address of the i-th universe client
// (deterministic key seeds).
func universeClientAddress(i int) hashing.Address {
	return universe.ClientKey(i).Address()
}

// pump submits ready operations while the outstanding-transaction budget
// allows (250 per shard, §VII-A).
func (r *kittiesRun) pump() {
	budget := r.cfg.OutstandingLimit * r.cfg.Shards
	for len(r.ready) > 0 && r.outstanding < budget {
		id := r.ready[0]
		r.ready = r.ready[1:]
		r.startOp(r.ops[id])
	}
	// Starvation markers (Fig. 5 right): once the DAG has no ready leaves,
	// a shard whose in-flight count dropped below its quota has "less
	// outgoing transactions than established at the beginning".
	if r.opsLeft > 0 && len(r.ready) == 0 {
		for s := 0; s < r.cfg.Shards; s++ {
			id := shardID(s)
			if r.inFlight[id] < r.cfg.OutstandingLimit {
				if _, seen := r.res.StarvedAt[id]; !seen {
					r.res.StarvedAt[id] = r.u.Sched.Now() - r.startAt
				}
			}
		}
	}
}

// track submits one transaction and wires accounting; fn runs on commit.
func (r *kittiesRun) track(cl *relay.Client, shard hashing.ChainID, to hashing.Address,
	data []byte, fn func(rec *types.Receipt)) {
	c := r.u.Chain(shard)
	txid := cl.Call(c, to, data, u256.Zero())
	r.outstanding++
	r.inFlight[shard]++
	c.NotifyTx(txid, func(rec *types.Receipt) {
		r.outstanding--
		r.inFlight[shard]--
		fn(rec)
		r.pump()
	})
}

// startOp orchestrates one trace operation.
func (r *kittiesRun) startOp(op *traceOp) {
	switch op.kind {
	case opPromo:
		r.startPromo(op)
	case opBreed:
		r.startBreed(op)
	}
}

func (r *kittiesRun) startPromo(op *traceOp) {
	cat := r.cats[op.cat]
	shard := shardID(cat.homeShard)
	var genes evm.Word
	g := hashing.Sum([]byte{byte(op.cat), byte(op.cat >> 8), 0x9E})
	copy(genes[:], g[:])
	ownerAddr := r.u.Client(cat.owner).Address()
	r.track(r.gameOwner, shard, r.registry,
		contracts.EncodeCall("createPromoKitty", contracts.ArgWord(genes), contracts.ArgAddress(ownerAddr)),
		func(rec *types.Receipt) {
			if !rec.Succeeded() {
				r.opFailed(op)
				return
			}
			addr, err := contracts.KittyCreated(rec.Logs)
			if err != nil {
				r.opFailed(op)
				return
			}
			r.live[op.cat] = liveCat{addr: addr, shard: shard}
			r.resolveSalt(op.cat, shard)
			r.opDone(op)
		})
}

// resolveSalt reads the cat's salt via a state query (clients learn salts
// from the CreatedAccount-style events; a direct view keeps the replay
// simple).
func (r *kittiesRun) resolveSalt(cat int, shard hashing.ChainID) {
	ret, err := r.u.Chain(shard).StaticCall(r.gameOwner.Address(), r.live[cat].addr,
		contracts.EncodeCall("salt"))
	if err == nil {
		r.live[cat].salt = u256.FromBytes(ret).Uint64()
	}
}

func (r *kittiesRun) startBreed(op *traceOp) {
	a, b := &r.live[op.catA], &r.live[op.catB]
	if a.addr.IsZero() || b.addr.IsZero() {
		r.opFailed(op)
		return
	}
	r.breeds++
	if a.shard != b.shard {
		// Cross-shard breeding: move cat B to cat A's shard first (§V-B).
		r.crossBreeds++
		ownerB := r.u.Client(r.cats[op.catB].owner)
		dst := a.shard
		r.moveCat(ownerB, op.catB, dst, func(ok bool) {
			if !ok {
				r.opFailed(op)
				return
			}
			r.breedColocated(op)
		})
		return
	}
	r.breedColocated(op)
}

// moveCat moves a cat between shards, charging two transactions to the
// outstanding budget.
func (r *kittiesRun) moveCat(owner *relay.Client, cat int, dst hashing.ChainID, done func(bool)) {
	if r.live[cat].addr.IsZero() {
		// The cat was never created (its creating operation failed).
		done(false)
		return
	}
	src := r.live[cat].shard
	r.outstanding += 2
	r.inFlight[src]++
	r.inFlight[dst]++
	r.u.Mover(src, dst).Move(owner, r.live[cat].addr, core.MoveToInput(dst),
		func(res *relay.MoveResult) {
			r.outstanding -= 2
			r.inFlight[src]--
			r.inFlight[dst]--
			if res.Err != nil {
				done(false)
				r.pump()
				return
			}
			r.live[cat].shard = dst
			done(true)
			r.pump()
		})
}

// breedColocated runs approve (if needed), breed, and giveBirth on cat A's
// shard.
func (r *kittiesRun) breedColocated(op *traceOp) {
	catA, catB := r.cats[op.catA], r.cats[op.catB]
	shard := r.live[op.catA].shard
	ownerA := r.u.Client(catA.owner)
	breed := func() {
		data := contracts.EncodeCall("breed",
			contracts.ArgAddress(r.live[op.catA].addr), contracts.ArgUint(r.live[op.catA].salt),
			contracts.ArgAddress(r.live[op.catB].addr), contracts.ArgUint(r.live[op.catB].salt))
		r.track(ownerA, shard, r.registry, data, func(rec *types.Receipt) {
			if !rec.Succeeded() {
				r.opFailed(op)
				return
			}
			pregnancy, err := contracts.Pregnant(rec.Logs)
			if err != nil {
				r.opFailed(op)
				return
			}
			r.track(ownerA, shard, r.registry,
				contracts.EncodeCall("giveBirth", contracts.ArgUint(pregnancy)),
				func(rec *types.Receipt) {
					if !rec.Succeeded() {
						r.opFailed(op)
						return
					}
					child, err := contracts.KittyCreated(rec.Logs)
					if err != nil {
						r.opFailed(op)
						return
					}
					r.live[op.child] = liveCat{addr: child, shard: shard}
					r.resolveSalt(op.child, shard)
					r.opDone(op)
				})
		})
	}
	if catA.owner != catB.owner {
		// Sire approval by B's owner first (Fig. 4's Tx3).
		ownerB := r.u.Client(catB.owner)
		r.track(ownerB, shard, r.live[op.catB].addr,
			contracts.EncodeCall("approveSiring", contracts.ArgAddress(r.live[op.catA].addr)),
			func(rec *types.Receipt) {
				if !rec.Succeeded() {
					r.opFailed(op)
					return
				}
				breed()
			})
		return
	}
	breed()
}

func (r *kittiesRun) opDone(op *traceOp) {
	r.opsLeft--
	r.res.OpsCompleted++
	r.releaseDependents(op)
}

func (r *kittiesRun) opFailed(op *traceOp) {
	r.opsLeft--
	r.res.FailedOps++
	// Dependents of a failed op are released too (they will fail fast if
	// their cats never materialized); the replay keeps going.
	r.releaseDependents(op)
}

func (r *kittiesRun) releaseDependents(op *traceOp) {
	for _, dep := range op.dependents {
		d := r.ops[dep]
		d.waiting--
		if d.waiting == 0 {
			r.ready = append(r.ready, d.id)
		}
	}
	r.pump()
}
