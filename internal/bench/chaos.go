package bench

import (
	"fmt"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/simnet"
	"scmove/internal/u256"
	"scmove/internal/universe"
)

// ChaosConfig tunes the chaos experiment: a sequence of cross-chain moves
// on the paper's IBC deployment with fault injection on every message path.
type ChaosConfig struct {
	// DropRate / DupRate apply to the WAN, submission, and header-relay
	// paths alike.
	DropRate float64
	DupRate  float64
	// Seed drives every fault RNG; the same seed reproduces the run exactly.
	Seed int64
	// Moves is how many back-and-forth moves to drive (alternating
	// Burrow→Ethereum and back).
	Moves int
	// Metrics enables the observability registry: per-stage Move latency
	// histograms and queue-depth gauges, rendered next to the counters.
	// Simulated results are identical either way.
	Metrics bool
	// Trace additionally retains a structured span per protocol stage for a
	// JSONL dump (implies Metrics).
	Trace bool
}

// DefaultChaosConfig is the headline scenario of the chaos test suite: 20%
// drops and 20% duplicates everywhere.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{DropRate: 0.20, DupRate: 0.20, Seed: 12345, Moves: 4}
}

// ChaosResult reports the chaos run: per-move latency plus the shared fault
// and recovery counters.
type ChaosResult struct {
	Config   ChaosConfig
	Latency  []time.Duration
	Counters map[string]uint64
	counters *metrics.Counters
	// Registry holds the stage-latency histograms and gauges (and, with
	// Trace, the span dump); nil unless Config.Metrics/Trace.
	Registry *metrics.Registry
}

// RunChaos drives cfg.Moves sequential moves of a Store contract between
// the two chains while every link misbehaves, and returns the latency of
// each move together with the fault/retry counter table. Every move must
// complete — the relayer's retry machinery is the system under test.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	ucfg := universe.DefaultConfig(1)
	ucfg.Metrics = cfg.Metrics || cfg.Trace
	ucfg.Trace = cfg.Trace
	faults := simnet.LinkFaults{DropRate: cfg.DropRate, DupRate: cfg.DupRate, JitterFrac: 0.1}
	ucfg.Chaos = &universe.ChaosConfig{
		WAN:          faults,
		Submit:       faults,
		HeaderRelay:  faults,
		HeaderWindow: 64,
		Seed:         cfg.Seed,
	}
	u, err := universe.New(ucfg)
	if err != nil {
		return nil, err
	}
	if inspectUniverse != nil {
		inspectUniverse(u)
	}
	u.Start()
	cl := u.Client(0)

	store, err := u.MustDeploy(cl, u.Chain(2), contracts.StoreName,
		contracts.StoreConstructorArgs(cl.Address(), 10), u256.Zero(), 30*time.Minute)
	if err != nil {
		return nil, fmt.Errorf("chaos deploy: %w", err)
	}

	res := &ChaosResult{Config: cfg, counters: u.Counters(), Registry: u.Metrics()}
	from, to := hashing.ChainID(2), hashing.ChainID(1)
	for i := 0; i < cfg.Moves; i++ {
		mv, err := u.MoveAndWait(cl, from, to, store, time.Hour)
		if err != nil {
			return nil, fmt.Errorf("chaos move %d (%s->%s): %w", i+1, from, to, err)
		}
		res.Latency = append(res.Latency, mv.Total())
		from, to = to, from
	}
	res.Counters = u.Counters().Snapshot()
	return res, nil
}

// inspectUniverse, when set, is handed every universe RunChaos and
// RunByzantine build, before the run starts; tests attach block listeners
// through it.
var inspectUniverse func(*universe.Universe)

// DefaultChaosSweep is the fault-rate grid of the chaos suite: drops and
// duplicates ramped together from a clean network to the headline 20/20
// scenario, all on the same seed so the sweep is reproducible.
func DefaultChaosSweep() []ChaosConfig {
	var cfgs []ChaosConfig
	for _, rate := range []float64{0, 0.05, 0.10, 0.20} {
		cfgs = append(cfgs, ChaosConfig{DropRate: rate, DupRate: rate, Seed: 12345, Moves: 4})
	}
	return cfgs
}

// RunChaosSweep runs the given chaos configurations as independent parallel
// cells (each with its own universe and fault RNGs) and returns the results
// in cfgs order.
func RunChaosSweep(cfgs []ChaosConfig) ([]*ChaosResult, error) {
	return runCells(len(cfgs), func(i int) (*ChaosResult, error) {
		return RunChaos(cfgs[i])
	})
}

// String renders the per-move latencies and the counter table.
func (r *ChaosResult) String() string {
	out := fmt.Sprintf("Chaos: %d moves under %.0f%% drop + %.0f%% duplication (seed %d)\n",
		r.Config.Moves, r.Config.DropRate*100, r.Config.DupRate*100, r.Config.Seed)
	lat := metrics.NewTable("move", "total latency")
	for i, d := range r.Latency {
		lat.AddRow(fmt.Sprintf("%d", i+1), fmtDur(d))
	}
	out += lat.String()
	out += "\nFault and recovery counters\n"
	out += r.counters.String()
	if rep := r.Registry.Report(); rep != "" {
		out += "\n" + rep
	}
	return out
}
