package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// metricDef declares one metric: BENCHMARK.json carries the same names,
// units, directions and bounds (TestBenchmarkJSONMatches pins the two
// together).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only
}

// endToEndDefs are the metrics every workload reports untraced. The
// driver's contract wants each of them on every workload and never zero,
// so the workload-specific latencies of the issue (ack / commit / query /
// move percentiles, the simulated rates and the failed fraction) are
// reported as per-layer metrics under the prefix "e2e." instead; wait_p50_ms
// is the one latency that has a meaning everywhere (see README.md). The time
// and memory bounds are the widest the contract allows because this host's
// own A/A medians move by up to 13 % between quiet and noisy minutes;
// allocations repeat to within 1.4 % and carry the tight bound.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "op/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"wait_p50_ms", "ms", "lower", 0.25},
}

// round is one fixed piece of measured work: a whole discrete-event replay,
// or the single time-boxed phase of a live or Move workload.
type round struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	pause time.Duration
}

// measureRound runs fn between two usage snapshots; fn returns the ops it
// committed.
func measureRound(fn func() (int, error)) (round, error) {
	before := readUsage()
	ops, err := fn()
	after := readUsage()
	return round{
		ops:   ops,
		wall:  after.at.Sub(before.at),
		cpu:   after.cpu - before.cpu,
		alloc: after.alloc - before.alloc,
		gcs:   after.gcs - before.gcs,
		pause: after.pause - before.pause,
	}, err
}

// phase is what one pass over a workload (untraced or traced) produced.
type phase struct {
	setups []time.Duration // one per set-up performed
	rounds []round
	// waits are the samples wait_p50_ms is the median of, in milliseconds.
	waits    []float64
	waitWhat string
	// throughput overrides the median of the rounds' ops/wall when the
	// workload measures it over a steadier window (live block-to-block).
	throughput float64

	attempted, failed int
	checks            []string // output checks that failed; empty means correct
	// extra are the workload's own observations, already named as per-layer
	// metrics ("e2e.commit_p50_ms", "chain.block_txs_mean", ...).
	extra map[string]float64
	// sig is everything that must repeat exactly between the untraced and
	// the traced pass of one seed.
	sig   string
	notes []string // sample counts and other lines for the human reader
	peak  float64  // ru_maxrss when the pass ended
}

func newPhase() *phase { return &phase{extra: make(map[string]float64)} }

func (p *phase) ok() bool { return len(p.checks) == 0 }

func (p *phase) failf(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

func (p *phase) notef(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

func (p *phase) ops() int {
	n := 0
	for _, r := range p.rounds {
		n += r.ops
	}
	return n
}

// perRound returns the median over rounds of f.
func (p *phase) perRound(f func(round) float64) float64 {
	vals := make([]float64, 0, len(p.rounds))
	for _, r := range p.rounds {
		if r.ops > 0 && r.wall > 0 {
			vals = append(vals, f(r))
		}
	}
	return median(vals)
}

func (p *phase) throughputOpsS() float64 {
	if p.throughput > 0 {
		return p.throughput
	}
	return p.perRound(func(r round) float64 { return float64(r.ops) / r.wall.Seconds() })
}

// endToEnd derives the six end-to-end metrics of a pass.
func endToEnd(p *phase) map[string]metric {
	setups := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setups[i] = d.Seconds()
	}
	vals := map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": p.throughputOpsS(),
		"cpu_ms_per_op":    p.perRound(func(r round) float64 { return ms(r.cpu) / float64(r.ops) }),
		"alloc_kb_per_op":  p.perRound(func(r round) float64 { return float64(r.alloc) / 1024 / float64(r.ops) }),
		"peak_rss_mb":      p.peak,
		"wait_p50_ms":      median(p.waits),
	}
	out := make(map[string]metric, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// printPhase writes the human-readable account of a pass: the end-to-end
// numbers with their sample counts, the notes, and any failed check.
func printPhase(workload, label string, p *phase) {
	fmt.Printf("# %s %s: %d ops in %d round(s), %d set-up(s), wait_p50_ms over %d samples (%s)\n",
		workload, label, p.ops(), len(p.rounds), len(p.setups), len(p.waits), p.waitWhat)
	for _, n := range p.notes {
		fmt.Printf("#   %s\n", n)
	}
	for _, c := range p.checks {
		fmt.Printf("# FAIL %s %s: %s\n", workload, label, c)
	}
}

// perLayerDefs lists every per-layer metric, in the order of the layer
// table in README.md. A traced run reports all of them; a metric the
// workload cannot observe reads 0.
var perLayerDefs = []metricDef{
	// rpc
	{name: "rpc.submit_srv_p50_us", unit: "us", better: "lower"},
	{name: "rpc.query_srv_p50_us", unit: "us", better: "lower"},
	{name: "rpc.http_overhead_p50_us", unit: "us", better: "lower"},
	{name: "rpc.known_or_rejected", unit: "count", better: "lower"},
	// types
	{name: "types.decode_tx_ns", unit: "ns", better: "lower"},
	{name: "types.recover_cold_us", unit: "us", better: "lower"},
	{name: "types.recover_hit_ns", unit: "ns", better: "lower"},
	{name: "types.sender_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "types.move2_codec_us_per_kslot", unit: "us", better: "lower"},
	{name: "types.move2_payload_bytes_per_slot", unit: "B", better: "lower"},
	// keys
	{name: "keys.sign_us", unit: "us", better: "lower"},
	{name: "keys.verify_batch64_us_per_sig", unit: "us", better: "lower"},
	// txpool
	{name: "txpool.add_ns", unit: "ns", better: "lower"},
	{name: "txpool.add_batch_ns_per_tx", unit: "ns", better: "lower"},
	{name: "txpool.next_batch_us_per_ktx", unit: "us", better: "lower"},
	{name: "txpool.depth_peak", unit: "count", better: "lower"},
	// tendermint / simnet / simclock
	{name: "tendermint.block_interval_p50_ms", unit: "ms", better: "lower"},
	{name: "tendermint.block_overrun_frac", unit: "ratio", better: "lower"},
	{name: "tendermint.msgs_per_block", unit: "count", better: "lower"},
	{name: "simnet.tcp_rejected", unit: "count", better: "lower"},
	{name: "simclock.sim_s_per_wall_s", unit: "ratio", better: "higher"},
	{name: "simclock.lane_speedup", unit: "ratio", better: "higher"},
	// chain
	{name: "chain.block_txs_mean", unit: "count", better: "higher"},
	{name: "chain.ack_to_commit_p50_ms", unit: "ms", better: "lower"},
	{name: "chain.apply_transfer_us_per_tx", unit: "us", better: "lower"},
	{name: "chain.apply_contract_us_per_tx", unit: "us", better: "lower"},
	{name: "chain.apply_serial_ratio", unit: "ratio", better: "lower"},
	{name: "chain.propose_batch_us", unit: "us", better: "lower"},
	{name: "chain.query_account_ns", unit: "ns", better: "lower"},
	{name: "chain.receipt_ns", unit: "ns", better: "lower"},
	{name: "chain.read_under_write_p99_us", unit: "us", better: "lower"},
	// evm / contracts
	{name: "evm.loop_ns_per_op", unit: "ns", better: "lower"},
	{name: "contracts.kitties_call_us", unit: "us", better: "lower"},
	// state / backend / trees / hashing
	{name: "state.commit_mem_us_per_dirty", unit: "us", better: "lower"},
	{name: "state.commit_file_us_per_dirty", unit: "us", better: "lower"},
	{name: "state.rebuild_tree_us_per_kslot", unit: "us", better: "lower"},
	{name: "backend.file_bytes_per_slot", unit: "B", better: "lower"},
	{name: "state.flat_warm_read_ns", unit: "ns", better: "lower"},
	{name: "state.tree_read_ns", unit: "ns", better: "lower"},
	{name: "mpt.get_ns", unit: "ns", better: "lower"},
	{name: "mpt.set_ns", unit: "ns", better: "lower"},
	{name: "mpt.prove_us", unit: "us", better: "lower"},
	{name: "iavl.get_ns", unit: "ns", better: "lower"},
	{name: "iavl.set_ns", unit: "ns", better: "lower"},
	{name: "iavl.prove_us", unit: "us", better: "lower"},
	{name: "hashing.sum512_ns", unit: "ns", better: "lower"},
	// core
	{name: "core.build_proof_us_per_kslot", unit: "us", better: "lower"},
	{name: "core.verify_move2_us_per_kslot", unit: "us", better: "lower"},
	{name: "core.apply_move2_us_per_kslot", unit: "us", better: "lower"},
	{name: "core.header_update_ns", unit: "ns", better: "lower"},
	// relay
	{name: "relay.move1_sim_s_p50", unit: "sim-s", better: "lower"},
	{name: "relay.p_wait_sim_s_p50", unit: "sim-s", better: "lower"},
	{name: "relay.move2_sim_s_p50", unit: "sim-s", better: "lower"},
	{name: "relay.retries", unit: "count", better: "lower"},
	// shard
	{name: "shard.moves_executed", unit: "count", better: "higher"},
	{name: "shard.moves_damped", unit: "count", better: "lower"},
	{name: "shard.final_spread", unit: "count", better: "higher"},
	{name: "shard.policy_gain", unit: "ratio", better: "higher"},
	// universe
	{name: "universe.new_ms_per_chain", unit: "ms", better: "lower"},
	{name: "universe.genesis_users_per_s", unit: "1/s", better: "higher"},
	// the benchmark itself
	{name: "bench.gen_late_p99_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	{name: "bench.gc_cycles", unit: "count", better: "lower"},
	{name: "bench.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "budget.tx_unexplained_frac", unit: "ratio", better: "lower"},
	{name: "budget.move_unexplained_frac", unit: "ratio", better: "lower"},
	// the issue's workload-specific end-to-end metrics, from the untraced pass
	{name: "e2e.ack_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.ack_p99_ms", unit: "ms", better: "lower"},
	{name: "e2e.commit_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.commit_p99_ms", unit: "ms", better: "lower"},
	{name: "e2e.query_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.query_p99_ms", unit: "ms", better: "lower"},
	{name: "e2e.move_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.move_p95_ms", unit: "ms", better: "lower"},
	{name: "e2e.sim_tx_s", unit: "tx/sim-s", better: "higher"},
	{name: "e2e.sim_move_s_p50", unit: "sim-s", better: "lower"},
	{name: "e2e.failed_frac", unit: "ratio", better: "lower"},
}

// perLayer assembles the traced run's metrics: the universal layer probes
// and layer replay (identical code on every workload), the workload's own
// observations, and the benchmark's view of itself.
func perLayer(o options, untraced, traced *phase, tr *tracer) (map[string]metric, error) {
	vals := make(map[string]float64)
	if err := runProbes(o, tr, vals); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	// Observations made while the spans were being recorded (registry
	// gauges, block gaps, budgets) come from the traced pass; the e2e.*
	// numbers come only from the untraced pass.
	for k, v := range traced.extra {
		if !strings.HasPrefix(k, "e2e.") {
			vals[k] = v
		}
	}
	for k, v := range untraced.extra {
		if strings.HasPrefix(k, "e2e.") {
			vals[k] = v
		}
	}
	if ut := untraced.throughputOpsS(); ut > 0 {
		vals["bench.trace_overhead_frac"] = 1 - traced.throughputOpsS()/ut
	}
	for _, r := range traced.rounds {
		vals["bench.gc_cycles"] += float64(r.gcs)
		vals["bench.gc_pause_total_ms"] += ms(r.pause)
	}
	known := make(map[string]bool, len(perLayerDefs))
	out := make(map[string]metric, len(perLayerDefs))
	for _, d := range perLayerDefs {
		known[d.name] = true
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	var stray []string
	for k := range vals {
		if !known[k] {
			stray = append(stray, k)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics without a definition: %s", strings.Join(stray, ", "))
	}
	return out, nil
}
