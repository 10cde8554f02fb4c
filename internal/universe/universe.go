// Package universe wires complete multi-blockchain simulations: chains with
// their consensus drivers (BFT validator clusters or PoW producers) on a
// shared discrete-event scheduler and simulated WAN, bidirectional header
// relays, the native contract registry, and funded clients. The experiment
// harnesses, examples, and end-to-end tests all build on it.
package universe

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"scmove/internal/chain"
	"scmove/internal/contracts"
	"scmove/internal/core"
	"scmove/internal/evm"
	"scmove/internal/hashing"
	"scmove/internal/keys"
	"scmove/internal/metrics"
	"scmove/internal/relay"
	"scmove/internal/rpc"
	"scmove/internal/simclock"
	"scmove/internal/simnet"
	"scmove/internal/state"
	"scmove/internal/state/backend"
	"scmove/internal/tendermint"
	"scmove/internal/trie"
	"scmove/internal/types"
	"scmove/internal/u256"
)

// ConsensusKind selects a chain's consensus driver.
type ConsensusKind uint8

// Supported consensus drivers.
const (
	// ConsensusBFT is the Tendermint-like validator cluster (Burrow).
	ConsensusBFT ConsensusKind = iota + 1
	// ConsensusPoW is the exponential-interval block producer (Ethereum).
	ConsensusPoW
)

// ChainSpec describes one chain of the universe.
type ChainSpec struct {
	Config    chain.Config
	Consensus ConsensusKind
	// Validators is the cluster size for BFT (the paper runs 10 per shard)
	// or the miner count for PoW.
	Validators int
	// Seed makes the chain's consensus timing reproducible.
	Seed int64
}

// BurrowSpec returns the paper's Burrow shard configuration (§VI): IAVL
// state, Burrow gas schedule, 10 validators, 5 s blocks, lagging state
// root, p = 2.
func BurrowSpec(id hashing.ChainID, registry *evm.Registry, seed int64) ChainSpec {
	return ChainSpec{
		Config: chain.Config{
			ChainID:           id,
			TreeKind:          trie.KindIAVL,
			Schedule:          evm.BurrowSchedule(),
			BlockGasLimit:     100_000_000,
			MaxBlockTxs:       500,
			LaggingStateRoot:  true,
			BlockInterval:     5 * time.Second,
			ConfirmationDepth: 2,
			Natives:           registry,
			PoolLimit:         100_000,
		},
		Consensus:  ConsensusBFT,
		Validators: 10,
		Seed:       seed,
	}
}

// EthereumSpec returns the paper's Ethereum configuration (§VI): MPT state,
// Ethereum gas schedule, 15 s expected blocks, p = 6.
func EthereumSpec(id hashing.ChainID, registry *evm.Registry, seed int64) ChainSpec {
	return ChainSpec{
		Config: chain.Config{
			ChainID:           id,
			TreeKind:          trie.KindMPT,
			Schedule:          evm.EthereumSchedule(),
			BlockGasLimit:     100_000_000,
			MaxBlockTxs:       500,
			BlockInterval:     15 * time.Second,
			ConfirmationDepth: 6,
			Natives:           registry,
			PoolLimit:         100_000,
		},
		Consensus:  ConsensusPoW,
		Validators: 4,
		Seed:       seed,
	}
}

// ChaosConfig switches on systematic fault injection across every message
// path of the universe: the validator WAN, the client-to-chain submission
// links, and the inter-chain header relays. All faults draw from seeded
// RNGs, so chaos runs are deterministic.
type ChaosConfig struct {
	// WAN overrides the consensus network's fault configuration
	// (drop/duplicate/jitter/reorder on every validator link).
	WAN simnet.LinkFaults
	// Submit applies to every client→chain submission link.
	Submit simnet.LinkFaults
	// HeaderRelay applies to every inter-chain header relay link. Each
	// relay message then re-sends the chaosHeaderWindow most recent
	// headers.
	HeaderRelay simnet.LinkFaults
	// Equivocators makes the first N non-zero validator indices of every
	// BFT cluster Byzantine: they send conflicting proposals and votes for
	// the same height/round to different peers. Keep N ≤ f (the cluster
	// fault budget) or consensus legitimately stalls.
	Equivocators int
	// Seed decorrelates the chaos RNGs from the base NetSeed.
	Seed int64
}

// chaosHeaderWindow is how many recent headers a relay message re-sends
// under chaos: a dropped relay message heals once any later one arrives,
// and a window this wide also rides out a partition of many blocks
// (TestPartitionThenHealCompletesMove).
const chaosHeaderWindow = 64

// Config describes a universe.
type Config struct {
	Specs []ChainSpec
	// Clients is the number of pre-funded client key pairs, each funded
	// with clientFunds on every chain.
	Clients int
	// SubmitDelay is the client-to-chain submission latency.
	SubmitDelay time.Duration
	// RelayDelay is the header relay latency between chains.
	RelayDelay time.Duration
	// NetSeed seeds the WAN jitter and message timing.
	NetSeed int64
	// Chaos, if set, injects faults into every message path and tunes the
	// relayer for recovery (nil runs a fault-free network).
	Chaos *ChaosConfig
	// Metrics switches on the observability registry: per-stage Move latency
	// histograms, block-interval histograms, and queue-depth gauges, all over
	// simulated time. Off by default; recording never schedules events or
	// draws randomness, so simulated results are identical either way.
	Metrics bool
	// Trace additionally retains one structured span per protocol stage and
	// point events (submissions, retries, recoveries) for a JSONL dump.
	// Implies Metrics.
	Trace bool
	// ExtraGenesis, if set, runs per chain after client funding — used to
	// pre-deploy shared contracts (token factories, game registries) at the
	// same address on every shard.
	ExtraGenesis func(id hashing.ChainID, db *state.DB)
	// State is the default state-storage configuration applied to every
	// chain whose spec does not set its own. With the file backend, each
	// chain stores its segments in a per-chain subdirectory of State.Dir.
	State state.Options
	// RPC starts one JSON-over-HTTP front-door server per chain on an
	// ephemeral loopback port (see RPCAddr): transaction submission, state
	// queries, and receipt lookups, with wall-clock latency histograms in
	// WallMetrics. The servers run real goroutines; combined with Realtime
	// they make the universe a live multi-chain deployment on one machine.
	RPC bool
	// Realtime attaches a wall-clock driver to the scheduler: simulated
	// delays elapse in real time and external goroutines (RPC handlers,
	// socket readers) inject work via Driver().Post. The caller runs the
	// driver; see Driver. Incompatible with Chaos (fault injection is a
	// discrete-event feature).
	Realtime bool
	// TCPWan carries consensus traffic over real loopback TCP sockets —
	// encoded frames between validator goroutines — instead of the
	// discrete-event network. Requires Realtime.
	TCPWan bool
	// Lanes is the sharded layout; it means exactly three things. Each
	// chain's consensus cluster gets its own simnet.Network, seeded
	// NetSeed + position·1 000 003 + 11 and labelled "wan.<chain>" in the
	// gauges, instead of sharing Universe.Net. Each chain's block listeners
	// and tx waiters fire from a fresh event at the current simulated time
	// (chain.SetDispatcher with sched.At(sched.Now(), fn)), after the event
	// that committed the block has returned, instead of inside it. And the
	// O(chains²) header-relay mesh is built lazily: a link comes into
	// existence on first use, when Mover (or EnsureRelay) touches a pair,
	// so set-up costs O(active pairs) — at 64 chains the eager mesh is 4032
	// links and listeners, almost all of which a sharded workload never
	// exercises. Link fault seeds derive from the chain pair's positions,
	// not creation order, so a lazily built link behaves as the eager
	// mesh's does. Every chain still runs on the one timeline (DESIGN.md
	// §16 has the name's history). Rejected with Realtime.
	Lanes bool
	// Users is the number of synthetic keyed user accounts, beyond Clients.
	// User i's key derives from a fixed seed offset (UserKey) and is funded
	// with userFunds at genesis only on its home chain (position i mod
	// chains). Addresses come from the process-wide table UserAddresses (20
	// bytes per user, no key pairs), so only the first build in a process
	// derives them.
	// Workloads re-derive keys for the users they actually drive
	// (UserClient).
	Users int
}

// Genesis balances: a client's on every chain, a synthetic user's on its
// home chain.
const (
	clientFunds = 1 << 60
	userFunds   = 1 << 50
)

// DefaultConfig returns a two-chain (Ethereum + Burrow) universe matching
// the paper's IBC deployment, with the standard contract registry.
func DefaultConfig(clients int) Config {
	registry := contracts.NewRegistry()
	return Config{
		Specs: []ChainSpec{
			EthereumSpec(1, registry, 42),
			BurrowSpec(2, registry, 43),
		},
		Clients:     clients,
		SubmitDelay: 50 * time.Millisecond,
		RelayDelay:  50 * time.Millisecond,
		NetSeed:     7,
	}
}

// ShardedConfig returns an S-shard Burrow deployment (the sharding
// experiments of §VII: 10 validators per shard, 5 s blocks, p=2) with the
// given number of pre-funded clients.
func ShardedConfig(shards, clients int) Config {
	registry := contracts.NewRegistry()
	cfg := Config{
		Clients:     clients,
		SubmitDelay: 50 * time.Millisecond,
		RelayDelay:  50 * time.Millisecond,
		NetSeed:     7,
	}
	for s := 0; s < shards; s++ {
		cfg.Specs = append(cfg.Specs, BurrowSpec(hashing.ChainID(s+1), registry, int64(100+s)))
	}
	return cfg
}

// ShardedScaleConfig returns an S-shard Burrow deployment tuned for the
// scaling experiments: a WAN instance per chain and a lazily built
// header-relay mesh (Lanes), and a keyed user population funded across the
// shards. validators ≤ 0 keeps BurrowSpec's 10 per shard, which the
// `movebench -experiment sharded` grid and the 16-chain detsmoke cell run;
// the benchmark's shard_migrate cell sets 4. A handful of regular clients
// ride along as relayer/deployer identities.
func ShardedScaleConfig(shards, validators, users int) Config {
	cfg := ShardedConfig(shards, 4)
	cfg.Lanes = true
	cfg.Users = users
	if validators > 0 {
		for i := range cfg.Specs {
			cfg.Specs[i].Validators = validators
		}
	}
	return cfg
}

// ClientKey returns the deterministic key pair of the i-th universe client;
// genesis allocations and workloads use it to know client addresses before
// the universe exists.
func ClientKey(i int) *keys.KeyPair { return keys.Deterministic(uint64(1000 + i)) }

// userSeedBase offsets user key seeds far above the client range.
const userSeedBase = 10_000_000

// UserKey returns the deterministic key pair of the i-th synthetic user
// (Config.Users). Derivation is pure, so workloads re-derive the keys of
// the users they drive instead of the universe retaining a million pairs.
func UserKey(i int) *keys.KeyPair { return keys.Deterministic(uint64(userSeedBase + i)) }

// userBatch is how many user addresses UserAddresses derives at a time on
// the shared crypto pool: the queue never holds more than one batch of
// derivations, and only one batch of key pairs is alive at once.
const userBatch = 2048

// userTable is the process's table of synthetic user addresses: entry i is
// UserKey(i).Address(). It only grows, and an entry never changes once
// written, so a prefix handed out stays valid while the table grows on.
var userTable struct {
	mu    sync.Mutex
	addrs []hashing.Address
}

// UserAddresses returns the addresses of users 0..n-1, deriving the ones no
// earlier call in this process derived. The result is a read-only prefix of
// the table. The table costs 20 bytes per user for the life of the process,
// and keeps no key pair: a 64-chain universe of 64 000 users derives its
// P-256 keys once per process instead of once per build.
func UserAddresses(n int) []hashing.Address {
	userTable.mu.Lock()
	defer userTable.mu.Unlock()
	for have := len(userTable.addrs); have < n; have = len(userTable.addrs) {
		end := min(n, have+userBatch)
		addrs := slices.Grow(userTable.addrs, end-have)[:end]
		var wg sync.WaitGroup
		wg.Add(end - have)
		for i := have; i < end; i++ {
			keys.SharedPool().Go(func() {
				defer wg.Done()
				addrs[i] = UserKey(i).Address()
			})
		}
		wg.Wait()
		userTable.addrs = addrs
	}
	return userTable.addrs[:n:n]
}

// fundUsers credits every user homed on the chain at position pos (user i
// lives on chain i mod stride), reading the addresses from UserAddresses:
// only the first build in a process derives them, and later builds of any
// size at most extend the table.
func fundUsers(db *state.DB, pos, stride, users int) {
	addrs := UserAddresses(users)
	for i := pos; i < users; i += stride {
		db.AddBalance(addrs[i], u256.FromUint64(userFunds))
	}
}

// Universe is a running multi-chain simulation.
type Universe struct {
	Sched *simclock.Scheduler
	Net   *simnet.Network

	chains  map[hashing.ChainID]*chain.Chain
	order   []hashing.ChainID
	bft     []*chain.BFTNode
	pow     []*chain.PoWNode
	clients []*relay.Client

	counters    *metrics.Counters
	reg         *metrics.Registry // nil unless Config.Metrics/Trace
	submitLinks map[hashing.ChainID]*simnet.Link
	relayLinks  map[[2]hashing.ChainID]*simnet.Link
	relayerCut  bool              // a relayer partition: EnsureRelay cuts the links it builds
	procBase    map[string]uint64 // metrics.Process once New has provisioned; nil unless u.reg

	// Scaling state (Config.Lanes, Users).
	pos         map[hashing.ChainID]int // chain position in configuration order
	relayDelay  time.Duration
	relayFaults simnet.LinkFaults
	relayWindow int
	relaySeed   int64
	users       int

	driver  *simclock.Realtime // non-nil with Config.Realtime
	tcp     *simnet.TCP        // non-nil with Config.TCPWan
	rpcs    map[hashing.ChainID]*rpc.Server
	wallReg *metrics.Registry // wall-clock RPC latencies; nil without RPC
}

// New builds a universe; call Start to begin block production.
func New(cfg Config) (*Universe, error) {
	if len(cfg.Specs) == 0 {
		return nil, errors.New("universe: no chains configured")
	}
	if cfg.TCPWan && !cfg.Realtime {
		return nil, errors.New("universe: TCPWan requires Realtime (sockets cannot run on virtual time)")
	}
	if cfg.Realtime && cfg.Chaos != nil {
		return nil, errors.New("universe: Chaos is a discrete-event feature, incompatible with Realtime")
	}
	if cfg.Lanes && cfg.Realtime {
		return nil, errors.New("universe: Lanes makes a per-chain simnet.Network the transport (TCPWan would be silently ignored), and Lanes with Realtime has no test")
	}
	sched := simclock.New()
	netCfg := simnet.Config{Seed: cfg.NetSeed}
	chaosSeed := cfg.NetSeed
	if cfg.Chaos != nil {
		chaosSeed = cfg.Chaos.Seed
		netCfg.Faults = cfg.Chaos.WAN
	}
	if netCfg.Faults.JitterFrac <= 0 {
		netCfg.Faults.JitterFrac = 0.1
	}
	if netCfg.Faults.CorruptRate > 0 {
		// Consensus messages cross the WAN as typed values, not bytes, so
		// corruption tampers with the fields an attacker on the wire could
		// reach: proposal payload bytes and vote hashes.
		netCfg.Tamper = tendermint.WireTamper()
	}
	net := simnet.New(sched, netCfg)
	u := &Universe{
		Sched:       sched,
		Net:         net,
		chains:      make(map[hashing.ChainID]*chain.Chain, len(cfg.Specs)),
		counters:    metrics.NewCounters(),
		submitLinks: make(map[hashing.ChainID]*simnet.Link, len(cfg.Specs)),
		relayLinks:  make(map[[2]hashing.ChainID]*simnet.Link),
		pos:         make(map[hashing.ChainID]int, len(cfg.Specs)),
		relayDelay:  cfg.RelayDelay,
		relaySeed:   chaosSeed,
		relayWindow: 1,
		users:       cfg.Users,
	}
	net.Observe(u.counters)
	if cfg.Realtime {
		u.driver = simclock.NewRealtime(sched)
	}
	// The transport seam: consensus clusters send through this interface.
	// Default is the deterministic discrete-event WAN; TCPWan swaps in real
	// loopback sockets carrying codec-encoded frames, with deliveries
	// funneled back onto the realtime driver's event loop.
	var transport simnet.Transport = net
	if cfg.TCPWan {
		u.tcp = simnet.NewTCP(tendermint.WireMessages(), u.driver.Post, 0)
		transport = u.tcp
	}
	if cfg.Metrics || cfg.Trace {
		u.reg = metrics.NewRegistryWith(u.counters)
		u.reg.EnableTrace(cfg.Trace)
		net.SetRegistry(u.reg)
	}

	// One (possibly lossy) submission link per chain, shared by every
	// client: the client-to-chain path the chaos knobs can degrade.
	var submitFaults simnet.LinkFaults
	if cfg.Chaos != nil {
		submitFaults = cfg.Chaos.Submit
	}
	for i, spec := range cfg.Specs {
		link := simnet.NewLink(sched, cfg.SubmitDelay, submitFaults, chaosSeed+int64(i)*7919+1)
		link.Observe(u.counters, "submit")
		if u.reg != nil {
			link.SetRegistry(u.reg)
		}
		u.submitLinks[spec.Config.ChainID] = link
	}

	// Clients, funded on every chain.
	// Key derivation is pure (seed → key pair) and lands by index, so the
	// population comes up in parallel yet identical to a serial loop.
	clientKeys := make([]*keys.KeyPair, cfg.Clients)
	var kg sync.WaitGroup
	kg.Add(len(clientKeys))
	for i := range clientKeys {
		i := i
		keys.SharedPool().Go(func() {
			defer kg.Done()
			clientKeys[i] = ClientKey(i)
		})
	}
	kg.Wait()
	for _, kp := range clientKeys {
		u.clients = append(u.clients, relay.NewClient(kp, u.submitLinks))
	}
	posOf := make(map[hashing.ChainID]int, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		posOf[spec.Config.ChainID] = i
	}
	genesisFor := func(id hashing.ChainID) func(db *state.DB) {
		return func(db *state.DB) {
			for _, kp := range clientKeys {
				db.AddBalance(kp.Address(), u256.FromUint64(clientFunds))
			}
			if cfg.Users > 0 {
				fundUsers(db, posOf[id], len(cfg.Specs), cfg.Users)
			}
			if cfg.ExtraGenesis != nil {
				cfg.ExtraGenesis(id, db)
			}
		}
	}

	// Every chain knows every other chain's parameters (§IV-A).
	params := make([]core.ChainParams, 0, len(cfg.Specs))
	for _, spec := range cfg.Specs {
		params = append(params, spec.Config.Params())
	}

	// fail releases what the universe has opened so far — file-backend
	// segments of the chains already built, TCP listeners, RPC servers.
	fail := func(err error) (*Universe, error) {
		u.Close() // the construction error is the one to report
		return nil, fmt.Errorf("universe: %w", err)
	}

	var nextNodeID simnet.NodeID = 1
	for pos, spec := range cfg.Specs {
		if spec.Config.State == (state.Options{}) && cfg.State != (state.Options{}) {
			// Inherit the universe default; file-backed chains each get
			// their own subdirectory so segment files never collide.
			spec.Config.State = cfg.State
			if spec.Config.State.Backend == backend.KindFile {
				spec.Config.State.Dir = filepath.Join(cfg.State.Dir, spec.Config.ChainID.String())
			}
		}
		c, err := chain.New(spec.Config, core.NewHeaderStore(params...), genesisFor(spec.Config.ChainID))
		if err != nil {
			return fail(err)
		}
		u.chains[spec.Config.ChainID] = c
		u.order = append(u.order, spec.Config.ChainID)
		u.pos[spec.Config.ChainID] = pos
		c.Headers().Observe(u.counters)
		if u.reg != nil {
			c.SetObserver(u.reg, sched.Now)
		}

		tp := transport
		if cfg.Lanes {
			laneNetCfg := netCfg
			laneNetCfg.Seed = netCfg.Seed + int64(pos)*1_000_003 + 11
			cnet := simnet.New(sched, laneNetCfg)
			cnet.Observe(u.counters)
			cnet.SetGaugeLabel("wan." + spec.Config.ChainID.String())
			if u.reg != nil {
				cnet.SetRegistry(u.reg)
			}
			tp = cnet
			c.SetDispatcher(func(fire func()) { sched.At(sched.Now(), fire) })
		}

		switch spec.Consensus {
		case ConsensusBFT:
			n := spec.Validators
			ids := make([]simnet.NodeID, n)
			regions := make([]simnet.Region, n)
			for i := 0; i < n; i++ {
				ids[i] = nextNodeID
				nextNodeID++
				regions[i] = simnet.Region((int(spec.Seed) + i) % simnet.RegionCount)
			}
			node, err := chain.NewBFTNode(sched, tp, c, ids, regions)
			if err != nil {
				return fail(err)
			}
			node.Observe(u.counters)
			if cfg.Chaos != nil {
				for v := 1; v <= cfg.Chaos.Equivocators && v < n; v++ {
					node.Cluster.SetByzantine(v, tendermint.ByzantineBehavior{
						EquivocateProposals: true,
						EquivocateVotes:     true,
					})
				}
			}
			u.bft = append(u.bft, node)
		case ConsensusPoW:
			u.pow = append(u.pow, chain.NewPoWNode(sched, c, spec.Seed, spec.Validators))
		default:
			return fail(fmt.Errorf("unknown consensus kind %d", spec.Consensus))
		}
	}

	// Bidirectional header relays between every pair, each over its own
	// (possibly lossy) link. Each relay message re-sends a window of recent
	// headers, so drops heal as soon as a later message gets through.
	if cfg.Chaos != nil {
		u.relayFaults = cfg.Chaos.HeaderRelay
		u.relayWindow = chaosHeaderWindow
	}
	if !cfg.Lanes {
		for _, a := range u.order {
			for _, b := range u.order {
				if a != b {
					u.EnsureRelay(a, b)
				}
			}
		}
	}

	// Front-door RPC servers, one per chain on an ephemeral loopback port.
	// They share one wall-clock metrics registry — latencies here are real
	// time, never simulated time, so they stay out of u.reg.
	if cfg.RPC {
		u.wallReg = metrics.NewRegistry()
		u.rpcs = make(map[hashing.ChainID]*rpc.Server, len(u.order))
		for _, id := range u.order {
			srv := rpc.NewServer(u.chains[id], u.wallReg)
			if err := srv.Start(""); err != nil {
				return fail(err)
			}
			u.rpcs[id] = srv
		}
	}
	if u.reg != nil {
		// Provisioning's own pool waits are not the event loop's.
		u.procBase = metrics.Process.Snapshot()
	}
	return u, nil
}

// Counters returns the universe's shared fault/retry counter set: simnet
// drops and duplicates, submission and header-relay link events, every
// mover's retry/recovery/timeout counts. With the observability layer on
// it also holds the loop waits: each chain's (Chain.SetObserver) and the
// metrics.Process deltas since New returned, folded in on each call (the
// process counters are process-wide, the counters per-universe).
func (u *Universe) Counters() *metrics.Counters {
	if u.reg == nil {
		return u.counters
	}
	proc := metrics.Process.Snapshot()
	for name, v := range proc {
		if d := v - u.procBase[name]; d > 0 {
			u.counters.Add(name, d)
		}
	}
	u.procBase = proc
	return u.counters
}

// Metrics returns the universe's observability registry, or nil when the
// layer is off (Config.Metrics/Trace unset). The nil registry is safe to
// record into and renders nothing.
func (u *Universe) Metrics() *metrics.Registry { return u.reg }

// EnsureRelay returns the a→b header relay link, creating it (and
// registering its OnBlock forwarder) on first use; it builds every relay
// link, the eager mesh's too. The link's fault seed derives from the pair's
// index among the ordered pairs of distinct chains in configuration order,
// so a lazily built mesh draws the same faults as the eager one, no matter
// which order traffic first touches the pairs.
func (u *Universe) EnsureRelay(a, b hashing.ChainID) *simnet.Link {
	key := [2]hashing.ChainID{a, b}
	if link, ok := u.relayLinks[key]; ok {
		return link
	}
	pa, pb := u.pos[a], u.pos[b]
	pair := pa*(len(u.order)-1) + pb
	if pb > pa {
		pair-- // the pair (a, a) is not a link
	}
	link := simnet.NewLink(u.Sched, u.relayDelay, u.relayFaults, u.relaySeed+int64(pair)*104729+2)
	link.Observe(u.counters, "headers")
	if u.reg != nil {
		link.SetRegistry(u.reg)
	}
	link.SetCut(u.relayerCut)
	u.relayLinks[key] = link
	chain.ConnectHeaderRelayVia(u.chains[a], u.chains[b], link, u.relayWindow)
	return link
}

// Start launches every chain's consensus. With Realtime the launch is
// posted onto the driver's event loop: the first cluster's proposals hit
// peer sockets the moment it starts, and the resulting deliveries must not
// race the remaining clusters' timer setup on the bare scheduler.
func (u *Universe) Start() {
	if u.driver != nil {
		u.driver.Post(u.startAll)
		return
	}
	u.startAll()
}

func (u *Universe) startAll() {
	for _, n := range u.bft {
		n.Start()
	}
	for _, n := range u.pow {
		n.Start()
	}
}

// Chain returns a chain by id.
func (u *Universe) Chain(id hashing.ChainID) *chain.Chain { return u.chains[id] }

// Close tears the universe down: RPC servers first (no new ingress), then
// the TCP transport's listeners and connections, then every chain's state
// backend (file handles of log-structured stores). The universe must not be
// used afterwards. All shutdown failures are aggregated with errors.Join —
// one chain failing to close must not mask another's error.
func (u *Universe) Close() error {
	var errs []error
	for _, id := range u.order {
		if srv, ok := u.rpcs[id]; ok {
			if err := srv.Close(); err != nil {
				errs = append(errs, fmt.Errorf("rpc %s: %w", id, err))
			}
		}
	}
	if u.tcp != nil {
		if err := u.tcp.Close(); err != nil {
			errs = append(errs, fmt.Errorf("tcp transport: %w", err))
		}
	}
	for _, id := range u.order {
		if err := u.chains[id].Close(); err != nil {
			errs = append(errs, fmt.Errorf("chain %s: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// RPCAddr returns a chain's front-door address (host:port), or "" when
// Config.RPC is off.
func (u *Universe) RPCAddr(id hashing.ChainID) string {
	if srv, ok := u.rpcs[id]; ok {
		return srv.Addr()
	}
	return ""
}

// TCPStats returns the live consensus transport's cumulative (sent,
// delivered, dropped, rejected) frame counts, safe to read while the
// universe runs; ok is false without Config.TCPWan.
func (u *Universe) TCPStats() (sent, delivered, dropped, rejected uint64, ok bool) {
	if u.tcp == nil {
		return 0, 0, 0, 0, false
	}
	sent, delivered, dropped, rejected = u.tcp.Stats()
	return sent, delivered, dropped, rejected, true
}

// WallMetrics returns the wall-clock metrics registry the RPC servers
// record into (per-method latency histograms), or nil when RPC is off.
// Quantiles are only safe to read after ingress stops.
func (u *Universe) WallMetrics() *metrics.Registry { return u.wallReg }

// Driver returns the wall-clock driver, or nil without Config.Realtime.
// Run it on its own goroutine; Start enqueues the consensus launch onto it,
// in either order:
//
//	u.Start()
//	go u.Driver().Run(stop)
func (u *Universe) Driver() *simclock.Realtime { return u.driver }

// ChainIDs returns the chain ids in configuration order.
func (u *Universe) ChainIDs() []hashing.ChainID {
	out := make([]hashing.ChainID, len(u.order))
	copy(out, u.order)
	return out
}

// Client returns the i-th pre-funded client.
func (u *Universe) Client(i int) *relay.Client { return u.clients[i] }

// Users returns the configured synthetic user population size.
func (u *Universe) Users() int { return u.users }

// UserHome returns the chain the i-th synthetic user is funded on.
func (u *Universe) UserHome(i int) hashing.ChainID {
	return u.order[i%len(u.order)]
}

// UserClient builds a client over the i-th synthetic user's key, wired to
// every chain's submission link. The universe does not retain it —
// workloads create clients for exactly the users they drive, which is what
// keeps a million-user universe cheap.
func (u *Universe) UserClient(i int) *relay.Client {
	return relay.NewClient(UserKey(i), u.submitLinks)
}

// Mover returns a mover from src to dst, wired into the universe's shared
// counters and registry. Each call returns a fresh mover with its own
// journal; hold on to one to exercise crash-recovery via Crash/Recover.
func (u *Universe) Mover(src, dst hashing.ChainID) *relay.Mover {
	// A move needs headers flowing both ways: the destination verifies the
	// Move1 proof against src headers, and the relayer confirms the Move2
	// result with dst headers on the source side. Without Lanes both links
	// already exist.
	u.EnsureRelay(src, dst)
	u.EnsureRelay(dst, src)
	m := relay.NewMover(u.Sched, u.chains[src], u.chains[dst], relay.NewJournal(), u.counters)
	m.SetRegistry(u.reg)
	return m
}

// Now returns the simulated time.
func (u *Universe) Now() time.Duration { return u.Sched.Now() }

// Ledger counts the work of a universe's event loop so far.
type Ledger struct {
	// Events is the number of scheduler events run.
	Events uint64
	// Deliveries is the number of WAN message copies handed to a
	// validator, over every simulated network of the universe ("wan.delivered").
	Deliveries uint64
}

// Ledger returns what the universe's event loop has done so far. Both
// counts are simulated behaviour: a change that moves either moved an
// event.
func (u *Universe) Ledger() Ledger {
	return Ledger{Events: u.Sched.Ran(), Deliveries: u.counters.Get("wan.delivered")}
}

// Run advances the simulation by d.
func (u *Universe) Run(d time.Duration) {
	u.Sched.RunUntil(u.Sched.Now() + d)
}

// RunUntil advances the simulation until cond holds or the timeout elapses,
// returning whether cond held.
func (u *Universe) RunUntil(cond func() bool, timeout time.Duration) bool {
	deadline := u.Sched.Now() + timeout
	for u.Sched.Now() < deadline {
		if cond() {
			return true
		}
		u.Sched.RunUntil(u.Sched.Now() + 100*time.Millisecond)
	}
	return cond()
}

// ErrTxTimeout reports a transaction that did not commit in time.
var ErrTxTimeout = errors.New("universe: transaction did not commit in time")

// waitTx advances the simulation until the transaction executes on c,
// returning its receipt.
func (u *Universe) waitTx(c *chain.Chain, id hashing.Hash, timeout time.Duration) (*types.Receipt, error) {
	ok := u.RunUntil(func() bool {
		_, found := c.Receipt(id)
		return found
	}, timeout)
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrTxTimeout, id, c.ChainID())
	}
	rec, _ := c.Receipt(id)
	return rec, nil
}

// waitSigned delivers a signed transaction and advances the simulation
// until it commits, resubmitting the same signed bytes every half minute:
// with a lossy submission link a single delivery attempt would wedge the
// harness on the first dropped message. Resubmission is idempotent (pool
// dedup + stale-nonce drop), so a duplicate can never re-execute.
func (u *Universe) waitSigned(cl *relay.Client, c *chain.Chain, tx *types.Transaction,
	timeout time.Duration) (*types.Receipt, error) {
	const resubmitEvery = 30 * time.Second
	txid := tx.ID()
	deadline := u.Sched.Now() + timeout
	for {
		cl.SubmitSigned(c, tx)
		rec, err := u.waitTx(c, txid, min(resubmitEvery, deadline-u.Sched.Now()))
		if err == nil || u.Sched.Now() >= deadline {
			return rec, err
		}
	}
}

// MustDeploy deploys a native contract via the client and runs the
// simulation until it commits, returning the address. The submission is
// retried, so it survives a lossy submission link.
func (u *Universe) MustDeploy(cl *relay.Client, c *chain.Chain, name string, args []byte,
	value u256.Int, timeout time.Duration) (hashing.Address, error) {
	rec, err := u.waitSigned(cl, c, cl.SignedCreate(c, evm.NativeDeployment(name, args), value), timeout)
	if err != nil {
		return hashing.Address{}, err
	}
	if !rec.Succeeded() {
		return hashing.Address{}, fmt.Errorf("universe: deploy %s: %s", name, rec.Err)
	}
	return rec.Created, nil
}

// MustCall submits a call via the client and runs the simulation until it
// commits, returning the receipt. The submission is retried, so it survives
// a lossy submission link.
func (u *Universe) MustCall(cl *relay.Client, c *chain.Chain, to hashing.Address,
	data []byte, value u256.Int, timeout time.Duration) (*types.Receipt, error) {
	rec, err := u.waitSigned(cl, c, cl.SignedCall(c, to, data, value), timeout)
	if err != nil {
		return nil, err
	}
	if !rec.Succeeded() {
		return nil, fmt.Errorf("universe: call failed: %s", rec.Err)
	}
	return rec, nil
}

// CompleteAndWait finishes a move whose Move1 already executed and blocks
// (in simulated time) until Move2 commits.
func (u *Universe) CompleteAndWait(cl *relay.Client, src, dst hashing.ChainID,
	contract hashing.Address, timeout time.Duration) (*relay.MoveResult, error) {
	var result *relay.MoveResult
	u.Mover(src, dst).Complete(cl, contract, func(r *relay.MoveResult) {
		result = r
	})
	if !u.RunUntil(func() bool { return result != nil }, timeout) {
		return nil, fmt.Errorf("%w: completion of %s", ErrTxTimeout, contract)
	}
	if result.Err != nil {
		return result, result.Err
	}
	return result, nil
}

// MoveAndWait runs a full contract move and blocks (in simulated time)
// until it finishes.
func (u *Universe) MoveAndWait(cl *relay.Client, src, dst hashing.ChainID,
	contract hashing.Address, timeout time.Duration) (*relay.MoveResult, error) {
	var result *relay.MoveResult
	u.Mover(src, dst).Move(cl, contract, core.MoveToInput(dst), func(r *relay.MoveResult) {
		result = r
	})
	if !u.RunUntil(func() bool { return result != nil }, timeout) {
		return nil, fmt.Errorf("%w: move of %s", ErrTxTimeout, contract)
	}
	if result.Err != nil {
		return result, result.Err
	}
	return result, nil
}
