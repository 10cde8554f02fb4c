// Package workload implements the paper's two evaluation workloads: the
// SCoin closed-loop token transfer benchmark with a controllable
// cross-shard rate and an optional conflict/retry mode (§VII-B, Figs. 6
// and 7), and the synthetic CryptoKitties trace replayed through a
// dependency DAG (§VII-A, Figs. 4 and 5).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// SCoinConfig parameterizes the token benchmark.
type SCoinConfig struct {
	Shards          int
	ClientsPerShard int
	// ReceiversPerShard is the number of pinned receiving accounts per
	// shard in the controlled (oracle) mode.
	ReceiversPerShard int
	// CrossFraction is the probability that an operation targets an account
	// on another shard (the x-axis of Fig. 6).
	CrossFraction float64
	// Duration is the measured window; a setup phase precedes it.
	Duration time.Duration
	// Retries enables the conflict mode of §VII-B1: clients target accounts
	// that themselves move, fail on conflicts, and retry after a random
	// 0-10 block backoff.
	Retries bool
	Seed    int64
}

const (
	// thinkTime is the maximum uniform pause between a client's operations
	// (decorrelates the closed loops from the block schedule).
	thinkTime = 2 * time.Second
	// maxRetries is how often a conflicting transfer is retried before the
	// operation is abandoned (Retries mode).
	maxRetries = 20
)

// SCoinResult aggregates the benchmark measurements.
type SCoinResult struct {
	Config SCoinConfig
	// Throughput is committed successful transactions per second across all
	// shards during the measured window (the y-axis of Fig. 6).
	Throughput float64
	// OpsPerSec counts completed application operations (one transfer plus
	// any moves it required).
	OpsPerSec float64
	// Latency distributions (Fig. 7): all operations, single-shard only,
	// and cross-shard only.
	All, Single, Cross *metrics.Latencies
	// Timeline is the committed-transaction rate over time.
	Timeline *metrics.Timeline
	// RetryCounts histograms how often retried operations retried
	// (conflict mode): RetryCounts[1] ops retried once, etc.
	RetryCounts map[int]int
	// FailedOps counts operations abandoned after too many retries.
	FailedOps int
	// MeasuredCrossFraction is the realized share of cross-shard ops.
	MeasuredCrossFraction float64
}

// account is one movable SAccount tracked by the workload.
type account struct {
	addr  hashing.Address
	salt  uint64
	owner *relay.Client
	// shard is the account's current chain.
	shard hashing.ChainID
	// moving marks an account whose owner is mid-move (conflict source).
	moving bool
}

// scoinRun is the mutable benchmark state.
type scoinRun struct {
	cfg    SCoinConfig
	u      *universe.Universe
	chains []*chain.Chain // in configuration order, for relay.Locate
	rng    *rand.Rand

	tokenAddr hashing.Address
	senders   []*account // one per client
	receivers map[hashing.ChainID][]*account

	startAt, endAt time.Duration

	res      *SCoinResult
	opsDone  int
	crossOps int
}

// RunSCoin executes the benchmark and returns its measurements.
func RunSCoin(cfg SCoinConfig) (*SCoinResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("workload: need at least one shard")
	}
	ownerKey := contracts.WellKnown("scoin-owner")
	tokenAddr := contracts.WellKnown("scoin-factory")
	ucfg := universe.ShardedConfig(cfg.Shards, cfg.Shards*cfg.ClientsPerShard+cfg.Shards)
	ucfg.ExtraGenesis = func(_ hashing.ChainID, db *state.DB) {
		contracts.GenesisSCoin(db, tokenAddr, ownerKey, u256.FromUint64(1_000_000))
	}
	u, err := universe.New(ucfg)
	if err != nil {
		return nil, err
	}
	run := &scoinRun{
		cfg:       cfg,
		u:         u,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		tokenAddr: tokenAddr,
		receivers: make(map[hashing.ChainID][]*account),
		res: &SCoinResult{
			Config:      cfg,
			All:         metrics.NewLatencies(),
			Single:      metrics.NewLatencies(),
			Cross:       metrics.NewLatencies(),
			Timeline:    metrics.NewTimeline(10 * time.Second),
			RetryCounts: make(map[int]int),
		},
	}
	for _, id := range u.ChainIDs() {
		run.chains = append(run.chains, u.Chain(id))
	}
	u.Start()
	if err := run.setup(); err != nil {
		return nil, err
	}
	run.measure()
	return run.res, nil
}

// shardID maps a shard index to its chain id.
func shardID(i int) hashing.ChainID { return hashing.ChainID(i + 1) }

// setup creates every sender and receiver account on its home shard.
func (r *scoinRun) setup() error {
	cfg := r.cfg
	type pendingCreate struct {
		txid  hashing.Hash
		chain *chain.Chain
		apply func(addr hashing.Address, salt uint64)
	}
	var pending []pendingCreate

	submitNewAccount := func(cl *relay.Client, shard hashing.ChainID, apply func(hashing.Address, uint64)) {
		txid := cl.Call(r.u.Chain(shard), r.tokenAddr, contracts.EncodeCall("newAccount"), u256.Zero())
		pending = append(pending, pendingCreate{txid: txid, chain: r.u.Chain(shard), apply: apply})
	}

	// Senders: client i lives on shard i % Shards.
	for i := 0; i < cfg.Shards*cfg.ClientsPerShard; i++ {
		cl := r.u.Client(i)
		shard := shardID(i % cfg.Shards)
		acct := &account{owner: cl, shard: shard}
		r.senders = append(r.senders, acct)
		submitNewAccount(cl, shard, func(addr hashing.Address, salt uint64) {
			acct.addr, acct.salt = addr, salt
		})
	}
	// Receivers: one dedicated owner client per shard owns all its pinned
	// receiving accounts.
	for s := 0; s < cfg.Shards; s++ {
		cl := r.u.Client(cfg.Shards*cfg.ClientsPerShard + s)
		shard := shardID(s)
		for j := 0; j < cfg.ReceiversPerShard; j++ {
			acct := &account{owner: cl, shard: shard}
			r.receivers[shard] = append(r.receivers[shard], acct)
			submitNewAccount(cl, shard, func(addr hashing.Address, salt uint64) {
				acct.addr, acct.salt = addr, salt
			})
		}
	}

	ok := r.u.RunUntil(func() bool {
		for _, p := range pending {
			if _, found := p.chain.Receipt(p.txid); !found {
				return false
			}
		}
		return true
	}, 10*time.Minute)
	if !ok {
		return fmt.Errorf("workload: account setup did not finish")
	}
	for _, p := range pending {
		rec, _ := p.chain.Receipt(p.txid)
		if !rec.Succeeded() {
			return fmt.Errorf("workload: newAccount failed: %s", rec.Err)
		}
		addr, salt, err := contracts.CreatedAccount(rec.Logs)
		if err != nil {
			return fmt.Errorf("workload: newAccount: %w", err)
		}
		p.apply(addr, salt)
	}
	return nil
}

// measure runs the closed loops for the configured duration.
func (r *scoinRun) measure() {
	r.startAt = r.u.Sched.Now()
	r.endAt = r.startAt + r.cfg.Duration

	// Count committed successful transactions per shard inside the window.
	for s := 0; s < r.cfg.Shards; s++ {
		c := r.u.Chain(shardID(s))
		c.OnBlock(func(b *types.Block, receipts []*types.Receipt) {
			now := r.u.Sched.Now()
			if now < r.startAt || now > r.endAt {
				return
			}
			good := 0
			for _, rec := range receipts {
				if rec.Succeeded() {
					good++
				}
			}
			r.res.Timeline.Record(now-r.startAt, good)
		})
	}
	for _, acct := range r.senders {
		r.nextOp(acct)
	}
	// Drain: run past the end so in-flight operations complete.
	r.u.RunUntil(func() bool { return r.u.Sched.Now() >= r.endAt+2*time.Minute }, r.cfg.Duration+10*time.Minute)

	window := r.cfg.Duration.Seconds()
	r.res.Throughput = float64(r.res.Timeline.Total()) / window
	r.res.OpsPerSec = float64(r.opsDone) / window
	if r.opsDone > 0 {
		r.res.MeasuredCrossFraction = float64(r.crossOps) / float64(r.opsDone)
	}
}

// nextOp schedules one closed-loop operation for the sender after a short
// random think time.
func (r *scoinRun) nextOp(acct *account) {
	r.u.Sched.After(time.Duration(r.rng.Int63n(int64(thinkTime))), func() {
		r.startOp(acct)
	})
}

// startOp begins the operation itself.
func (r *scoinRun) startOp(acct *account) {
	if r.u.Sched.Now() >= r.endAt {
		return
	}
	cross := r.cfg.Shards > 1 && r.rng.Float64() < r.cfg.CrossFraction
	var targetShard hashing.ChainID
	if cross {
		for {
			targetShard = shardID(r.rng.Intn(r.cfg.Shards))
			if targetShard != acct.shard {
				break
			}
		}
	} else {
		targetShard = acct.shard
	}
	target := r.pickTarget(acct, targetShard)
	if target == nil {
		// No eligible target right now (conflict mode corner); retry soon.
		r.u.Sched.After(time.Second, func() { r.nextOp(acct) })
		return
	}
	op := &scoinOp{start: r.u.Sched.Now(), cross: cross}
	if targetShard == acct.shard {
		r.transfer(acct, target, op)
		return
	}
	// Cross-shard: move our account to the target's shard first (§VII-B).
	acct.moving = true
	r.u.Mover(acct.shard, targetShard).Move(acct.owner, acct.addr, core.MoveToInput(targetShard),
		func(res *relay.MoveResult) {
			acct.moving = false
			if res.Err != nil {
				r.opFailed(acct, op)
				return
			}
			acct.shard = targetShard
			r.transfer(acct, target, op)
		})
}

// pickTarget chooses the destination account on the given shard.
func (r *scoinRun) pickTarget(self *account, shard hashing.ChainID) *account {
	if !r.cfg.Retries {
		recv := r.receivers[shard]
		return recv[r.rng.Intn(len(recv))]
	}
	// Conflict mode: target other senders' accounts, which move around.
	// The client resolves the target's current shard from the Lc field of
	// the shard it last knew (§III-G(b)) — by construction our tracked
	// 'shard' field is that resolution, but it may be stale by execution
	// time, which is exactly the conflict the experiment provokes.
	for tries := 0; tries < 32; tries++ {
		cand := r.senders[r.rng.Intn(len(r.senders))]
		if cand != self && cand.shard == shard {
			return cand
		}
	}
	return nil
}

type scoinOp struct {
	start   time.Duration
	cross   bool
	retries int
}

// transfer submits the token transfer on the sender's current shard.
func (r *scoinRun) transfer(acct *account, target *account, op *scoinOp) {
	c := r.u.Chain(acct.shard)
	data := contracts.EncodeCall("transfer",
		contracts.ArgAddress(target.addr), contracts.ArgUint(target.salt),
		contracts.ArgU256(u256.FromUint64(1)))
	txid := acct.owner.Call(c, acct.addr, data, u256.Zero())
	c.NotifyTx(txid, func(rec *types.Receipt) {
		if rec.Succeeded() {
			r.opDone(acct, op)
			return
		}
		if !r.cfg.Retries || op.retries >= maxRetries {
			r.opFailed(acct, op)
			return
		}
		// Conflict: back off 0-10 blocks (5 s each) then retry against the
		// target's refreshed location (paper §VII-B1).
		op.retries++
		backoff := time.Duration(r.rng.Intn(11)) * 5 * time.Second
		r.u.Sched.After(backoff, func() { r.retryTransfer(acct, target, op) })
	})
}

// retryTransfer re-resolves the target's location and retries, moving our
// account after it if necessary. If the target is mid-move, the client can
// see the Move1 lock through Lc (§III-G(b)) and simply polls until the
// move completes instead of submitting a transaction doomed to fail.
func (r *scoinRun) retryTransfer(acct *account, target *account, op *scoinOp) {
	if target.moving {
		r.u.Sched.After(5*time.Second, func() { r.retryTransfer(acct, target, op) })
		return
	}
	if target.shard == acct.shard {
		r.transfer(acct, target, op)
		return
	}
	// Capture the destination now: the target may move again while our own
	// move is in flight, and the callback must record where *we* actually
	// went, not where the target is by then.
	dst := target.shard
	acct.moving = true
	r.u.Mover(acct.shard, dst).Move(acct.owner, acct.addr, core.MoveToInput(dst),
		func(res *relay.MoveResult) {
			acct.moving = false
			if res.Err != nil {
				r.opFailed(acct, op)
				return
			}
			acct.shard = dst
			r.transfer(acct, target, op)
		})
}

func (r *scoinRun) opDone(acct *account, op *scoinOp) {
	now := r.u.Sched.Now()
	if now >= r.startAt && now <= r.endAt {
		lat := now - op.start
		r.res.All.Record(lat)
		if op.cross {
			r.res.Cross.Record(lat)
			r.crossOps++
		} else {
			r.res.Single.Record(lat)
		}
		r.opsDone++
		if op.retries > 0 {
			r.res.RetryCounts[op.retries]++
		}
	}
	r.nextOp(acct)
}

func (r *scoinRun) opFailed(acct *account, op *scoinOp) {
	r.res.FailedOps++
	// Re-resolve where the account actually lives before the next op: a
	// failed move can leave client-side tracking stale. Any chain's Lc
	// field names the account's true home (§III-G(b)).
	r.resolveShard(acct)
	r.nextOp(acct)
}

// resolveShard refreshes the client's view of its account's location by
// chasing the Lc field from any shard that knows the account (§III-G(b)).
func (r *scoinRun) resolveShard(acct *account) {
	if loc, ok := relay.Locate(r.chains, acct.addr); ok {
		acct.shard = loc
	}
}
