// Command benchmark is the repository's benchmark: five workloads, six
// client-observed end-to-end metrics that every workload reports, and an
// outside-in per-layer trace. See README.md in this directory.
//
// The driver runs it once per (workload, seed, trace) through run.sh:
//
//	bash benchmark/run.sh --workload rpc_mixed_open --seed 3 --seconds 10 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// --workload every workload runs once untraced and once traced and the
// results are written to a file that -compare reads:
//
//	bash benchmark/run.sh -out a.json && bash benchmark/run.sh -out b.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the driver reads from the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // JSONL span file of a traced run
	workDir  string // scratch directory for file-backed state, inside the checkout
	smoke    bool   // test scale: same code paths, seconds of work cut to fractions
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	// run executes the set-up, the measured phase (about o.seconds of wall
	// time) and the output check. tr is nil on the untraced run.
	run func(o options, tr *tracer) (*phase, error)
}

func workloads() []workloadDef {
	return []workloadDef{
		{
			name: "rpc_submit_sat",
			why:  "closed-loop unit transfers through HTTP RPC, TCP consensus and state commit: write capacity of the front door; evm, core and shard are idle",
			run:  func(o options, tr *tracer) (*phase, error) { return runRPC(o, tr, false) },
		},
		{
			name: "rpc_mixed_open",
			why:  "open-loop 2:1 submits and state queries on a fixed schedule at about a third of capacity: reads beside writes under the chain lock, latency from due time",
			run:  func(o options, tr *tracer) (*phase, error) { return runRPC(o, tr, true) },
		},
		{
			name: "kitties_replay",
			why:  "the paper's Fig. 5 application on the discrete-event path: evm, contracts, state trees, signing and simulated consensus; no rpc, no sockets, Moves are a tenth of ops",
			run:  runKitties,
		},
		{
			name: "move_store",
			why:  "Store-N contracts ping-ponged between an MPT chain and an IAVL chain on the file backend: the Move protocol, proof build and verify, bulk slot writes; evm and txpool idle",
			run:  runMoveStore,
		},
		{
			name: "shard_migrate",
			why:  "64 laned chains under the parallel tick driver with the migration policy on: shard engine, simclock lanes, relay movers and universe set-up at scale",
			run:  runShardMigrate,
		},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var o options
	var trace int
	var out string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every input generator")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "JSONL span file of a traced run (default .bench_build/trace-<workload>.jsonl)")
	flag.StringVar(&out, "out", ".bench_build/results.json", "results file written when every workload runs")
	flag.BoolVar(&compare, "compare", false, "compare two results files given as arguments; non-zero exit on a breached bound")
	flag.Parse()
	o.trace = trace != 0
	o.workDir = ".bench_build"

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	printHeader(o)
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		res, err := runOne(w, o)
		if err != nil {
			fatal(err)
		}
		printMetrics(w.name, res.Metrics)
		printResult(res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	if err := runAll(o, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printHeader records what the numbers were measured on.
func printHeader(o options) {
	fmt.Printf("# benchmark nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID(), o.seed, o.seconds)
}

// commitID names the measured tree: the driver's checkout is not a git
// repository, so the answer there is "unknown".
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult writes the driver's line: one JSON object, last on stdout.
func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// runOne runs one workload as the driver asks: untraced for the end-to-end
// metrics, or traced for the per-layer ones. The traced run splits its
// seconds between an untraced and a traced pass over the same inputs, so
// that tracing overhead and the exact-repeat checks come from one process.
func runOne(w workloadDef, o options) (*result, error) {
	if !o.trace {
		ph, err := w.run(o, nil)
		if err != nil {
			return nil, err
		}
		printPhase(w.name, "untraced", ph)
		return &result{
			Correct: ph.ok(), Attempted: ph.attempted, Failed: ph.failed,
			Metrics: endToEnd(ph),
		}, nil
	}
	half := o
	half.seconds = o.seconds / 2
	untraced, err := w.run(half, nil)
	if err != nil {
		return nil, err
	}
	printPhase(w.name, "untraced", untraced)
	tr := newTracer()
	traced, err := w.run(half, tr)
	if err != nil {
		return nil, err
	}
	printPhase(w.name, "traced", traced)
	layers, err := perLayer(o, untraced, traced, tr)
	if err != nil {
		return nil, err
	}
	path := o.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+w.name+".jsonl")
	}
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.all()), path)
	correct := untraced.ok() && traced.ok()
	if untraced.sig != traced.sig {
		correct = false
		fmt.Printf("# FAIL %s: untraced and traced runs of seed %d disagree:\n#   %s\n#   %s\n",
			w.name, o.seed, untraced.sig, traced.sig)
	}
	return &result{
		Correct:   correct,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
		Metrics:   layers,
	}, nil
}

// resultsFile is what a run of every workload writes and -compare reads.
type resultsFile struct {
	Header    map[string]string            `json:"header"`
	Workloads map[string]map[string]metric `json:"workloads"`
}

// runAll runs every workload untraced and traced, prints every metric by
// name and writes the results file.
func runAll(o options, out string) error {
	file := resultsFile{
		Header: map[string]string{
			"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
			"go": runtime.Version(), "commit": commitID(), "seed": fmt.Sprint(o.seed),
			"seconds": fmt.Sprint(o.seconds),
		},
		Workloads: make(map[string]map[string]metric),
	}
	allCorrect := true
	for _, w := range workloads() {
		all := make(map[string]metric)
		for _, traced := range []bool{false, true} {
			ro := o
			ro.workload, ro.trace = w.name, traced
			res, err := runOne(w, ro)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			allCorrect = allCorrect && res.Correct
			printMetrics(w.name, res.Metrics)
			for k, v := range res.Metrics {
				all[k] = v
			}
		}
		file.Workloads[w.name] = all
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# results written to %s\n", out)
	if !allCorrect {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

func printMetrics(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-16s %-36s %14.4f %s\n", workload, name, ms[name].Value, ms[name].Unit)
	}
}
