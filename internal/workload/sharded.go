package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/shard"
	"scmove/internal/state"
	"scmove/internal/types"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// ShardedScalingConfig parameterizes the 16–64-chain scaling workload: a
// congested home shard, a keyed user population spread across every shard,
// and the auto-migration policy engine deciding whether contracts follow
// their users.
type ShardedScalingConfig struct {
	// Chains is the shard count (the grid runs 4 / 16 / 64).
	Chains int
	// Validators per shard (0 keeps BurrowSpec's 10, as the sharded grid
	// and the 16-chain detsmoke cell run; the benchmark's shard_migrate
	// cell sets 4).
	Validators int
	// Users is the synthetic keyed population funded at genesis, at least
	// activePerChain (4) per chain: those users drive traffic, the rest
	// exist to prove provisioning scales.
	Users int
	// Contracts are all deployed on the first shard (2 per chain by
	// default), a multiple of Chains.
	Contracts int
	// Policy enables the migration engine; off is the hot-shard baseline.
	Policy bool
	// Warmup runs traffic (and the policy) before measurement starts: the
	// congested start stacks a deep backlog on the hot shard, and draining
	// it is a transient that would otherwise dominate the window at high
	// chain counts.
	Warmup time.Duration
	// Duration is the measured window (4 min by default).
	Duration time.Duration
	Seed     int64
	// Deprecated: ignored — the parallel per-tick driver is gone. The field
	// stays only because benchmark/wl_sim.go:248 sets it.
	ParallelTick bool
}

// The scaling cell's fixed shape. Per chain, activePerChain users drive
// closed-loop traffic, each with outstanding calls in flight. crossFrac of
// calls target a uniformly random contract instead of one from the
// caller's own community (whose contracts the policy will eventually park
// on the caller's home chain). A block holds at most shardCapacity
// transactions, which makes the single home shard the bottleneck the
// policy can relieve.
const (
	activePerChain = 4
	outstanding    = 8
	crossFrac      = 0.1
	shardCapacity  = 60
)

// DefaultShardedScalingConfig returns the grid cell for one chain count.
func DefaultShardedScalingConfig(chains int, policy bool) ShardedScalingConfig {
	return ShardedScalingConfig{
		Chains:    chains,
		Users:     1000 * chains,
		Contracts: 2 * chains,
		Policy:    policy,
		Warmup:    3 * time.Minute,
		Duration:  4 * time.Minute,
		Seed:      31,
	}
}

// ShardedScalingResult reports one scaling run.
type ShardedScalingResult struct {
	Config ShardedScalingConfig
	// Committed counts successful contract calls inside the window;
	// Throughput is their rate over simulated time.
	Committed  uint64
	Throughput float64
	// Moves summarizes the engine's activity (zero with Policy off).
	Moves shard.Stats
	// FinalSpread is how many distinct chains host a contract at the end.
	FinalSpread int
	// PerChain is each shard's final block height, in configuration order.
	PerChain []uint64
	// Wall is the run's wall-clock cost.
	Wall time.Duration
	// Fingerprint reduces everything simulated to a comparable string:
	// identical at any GOMAXPROCS.
	Fingerprint string
}

// RunShardedScaling builds an S-shard universe (universe.ShardedScaleConfig)
// with a keyed user population, deploys every contract on the first shard,
// drives closed-loop user traffic, and (with Policy on) lets the migration
// engine spread the contracts to their callers' chains. It reports committed throughput and a
// determinism fingerprint.
func RunShardedScaling(cfg ShardedScalingConfig) (*ShardedScalingResult, error) {
	if cfg.Chains < 2 {
		return nil, fmt.Errorf("workload: sharded scaling needs at least two chains")
	}
	activeUsers := activePerChain * cfg.Chains

	ucfg := universe.ShardedScaleConfig(cfg.Chains, cfg.Validators, cfg.Users)
	ucfg.Clients = cfg.Contracts // one deployer/owner client per contract
	// Active drivers submit wherever their contracts live, so they carry
	// gas money on every chain — the bulk population stays funded only at
	// home, which is what keeps provisioning linear.
	driverAddrs := universe.UserAddresses(activeUsers)
	ucfg.ExtraGenesis = func(_ hashing.ChainID, db *state.DB) {
		for _, a := range driverAddrs {
			db.AddBalance(a, u256.FromUint64(1<<50))
		}
	}
	for i := range ucfg.Specs {
		ucfg.Specs[i].Config.MaxBlockTxs = shardCapacity
	}
	wallStart := time.Now()
	u, err := universe.New(ucfg)
	if err != nil {
		return nil, err
	}
	defer u.Close()
	if inspectUniverse != nil {
		inspectUniverse(u)
	}
	u.Start()

	res := &ShardedScalingResult{Config: cfg}
	order := u.ChainIDs()
	home := order[0]
	hot := u.Chain(home)

	// Deploy every contract on the home shard in one batched round: all
	// creates enter the pool together (per-sender nonce chains keep them
	// orderable) and commit within a few blocks.
	addrs := make([]hashing.Address, cfg.Contracts)
	owners := make([]*relay.Client, cfg.Contracts)
	{
		txids := make([]hashing.Hash, cfg.Contracts)
		for k := range addrs {
			owners[k] = u.Client(k)
			txids[k] = owners[k].Create(hot,
				evm.NativeDeployment(contracts.StoreName,
					contracts.StoreConstructorArgs(owners[k].Address(), 1)), u256.Zero())
		}
		ok := u.RunUntil(func() bool {
			for _, id := range txids {
				if _, found := hot.Receipt(id); !found {
					return false
				}
			}
			return true
		}, 10*time.Minute)
		if !ok {
			return nil, fmt.Errorf("workload: contract deployment timed out")
		}
		for k, id := range txids {
			rec, _ := hot.Receipt(id)
			if !rec.Succeeded() {
				return nil, fmt.Errorf("workload: deploy %d failed: %s", k, rec.Err)
			}
			addrs[k] = rec.Created
		}
	}

	// Active users: clients over re-derived keys, plus the caller-home map
	// the affinity policy resolves senders against.
	drivers := make([]*relay.Client, activeUsers)
	homes := make(map[hashing.Address]hashing.ChainID, activeUsers)
	for i := range drivers {
		drivers[i] = u.UserClient(i)
		homes[drivers[i].Address()] = u.UserHome(i)
	}

	// The migration engine (policy on) or a static locator (policy off).
	loc := func(k int) hashing.ChainID { return home }
	var eng *shard.Engine
	if cfg.Policy {
		ecfg := shard.Config{
			Clock: u.Sched,
			Mover: u.Mover,
			Home: func(addr hashing.Address) (hashing.ChainID, bool) {
				h, ok := homes[addr]
				return h, ok
			},
			Counters: u.Counters(),
			Registry: u.Metrics(),
		}
		for _, id := range u.ChainIDs() {
			ecfg.Chains = append(ecfg.Chains, u.Chain(id))
		}
		eng = shard.New(ecfg)
		for k, addr := range addrs {
			eng.Track(addr, home, owners[k])
		}
		eng.Start()
		loc = func(k int) hashing.ChainID { return eng.Location(addrs[k]) }
	}

	// Closed-loop drivers. User i's community is the contracts k ≡ i mod S:
	// their callers all live on chain order[k mod S], which is where the
	// affinity policy will eventually park them. crossFrac of calls go to a
	// uniformly random contract instead.
	startAt := u.Sched.Now() + cfg.Warmup
	endAt := startAt + cfg.Duration
	var committed uint64
	S := cfg.Chains
	for i := range drivers {
		i := i
		cl := drivers[i]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		var fire func()
		fire = func() {
			if u.Sched.Now() >= endAt {
				return
			}
			k := i%S + S*rng.Intn(cfg.Contracts/S)
			if rng.Float64() < crossFrac {
				k = rng.Intn(cfg.Contracts)
			}
			if eng != nil && eng.IsMoving(addrs[k]) {
				// The contract is locked mid-move; don't burn block space on
				// a call that must fail.
				u.Sched.After(time.Second, fire)
				return
			}
			c := u.Chain(loc(k))
			txid := cl.Call(c, addrs[k],
				contracts.EncodeCall("get", contracts.ArgUint(0)), u256.Zero())
			c.NotifyTx(txid, func(rec *types.Receipt) {
				if now := u.Sched.Now(); rec.Succeeded() && now > startAt && now <= endAt {
					committed++
				}
				fire()
			})
		}
		for n := 0; n < outstanding; n++ {
			fire()
		}
	}

	u.RunUntil(func() bool { return u.Sched.Now() >= endAt }, cfg.Warmup+cfg.Duration+time.Minute)
	if eng != nil {
		// Let in-flight migrations settle before reading final locations.
		u.RunUntil(func() bool { return eng.Moving() == 0 }, 10*time.Minute)
		res.Moves = eng.Stats()
	}

	res.Committed = committed
	res.Throughput = float64(committed) / cfg.Duration.Seconds()
	spread := make(map[hashing.ChainID]bool)
	for k := range addrs {
		spread[loc(k)] = true
	}
	res.FinalSpread = len(spread)
	for _, id := range order {
		res.PerChain = append(res.PerChain, u.Chain(id).Head().Height)
	}
	res.Wall = time.Since(wallStart)
	res.Fingerprint = shardedFingerprint(u, res, addrs, loc)
	return res, nil
}

// shardedFingerprint reduces the run to everything simulated: committed
// count, per-chain heights and state roots, final contract locations, move
// stats, and the deterministic counters. The process counters
// (metrics.ProcessCounter: loopwait.*) are excluded — they
// vary with GOMAXPROCS and wall time without affecting simulated results.
func shardedFingerprint(u *universe.Universe, res *ShardedScalingResult,
	addrs []hashing.Address, loc func(int) hashing.ChainID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "committed=%d moves=%d/%d/%d\n",
		res.Committed, res.Moves.Issued, res.Moves.Completed, res.Moves.Failed)
	for i, id := range u.ChainIDs() {
		h := u.Chain(id).Head()
		fmt.Fprintf(&sb, "chain %s h=%d root=%s\n", id, res.PerChain[i], h.StateRoot)
	}
	for k := range addrs {
		fmt.Fprintf(&sb, "loc %d=%s\n", k, loc(k))
	}
	snap := u.Counters().Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if metrics.ProcessCounter(name) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s=%d\n", name, snap[name])
	}
	return sb.String()
}
