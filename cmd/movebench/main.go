// Command movebench regenerates the paper's evaluation figures.
//
// Usage:
//
//	movebench [-experiment all|fig5|fig6|fig7|fig8|fig9|ablations|sharded|chaos|chaossweep|byzantine] [-scale 1.0]
//
// Scale shrinks population sizes and measurement windows uniformly (0.08 is
// the CI scale; 1.0 approximates the paper's populations). Results print as
// the tables described in EXPERIMENTS.md.
//
// The chaos experiment drives repeated cross-chain moves while every
// message path drops and duplicates traffic (-drop, -dup, -chaos-seed,
// -moves), printing per-move latency and the fault/recovery counters.
// chaossweep runs the default fault-rate grid with each configuration on
// its own goroutine.
//
// The byzantine experiment adds active adversaries to the chaos run:
// in-flight byte corruption on every path (-corrupt), an equivocating
// validator (-equivocators), and a client that replays and forges Move2
// proofs after every move. The run fails loudly if any attack is accepted
// or consensus stalls; its counters and final state roots are
// byte-identical for the same -chaos-seed.
//
// -metrics adds per-stage Move latency histograms (Move1 commit, p-wait,
// Move2 commit) and queue-depth gauges to the chaos and chaossweep output;
// -trace <file> additionally dumps one JSON Lines span per protocol stage
// and event of the chaos run. Both observe simulated time only: the
// simulated results are bit-identical with the layer on or off. -metrics
// also adds to the chaos, chaossweep and byzantine counter tables where the
// event loop blocked on another goroutine (loopwait.*: blocks and wall
// nanoseconds per site), which, being wall time, differ between runs.
//
// -cpuprofile <file> and -memprofile <file> write pprof profiles of the
// selected experiment (the CPU profile covers the whole run; the heap
// profile is taken after a final GC), for go tool pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"scmove/internal/bench"
	"scmove/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run: all, fig5, fig6, fig7, fig8, fig9, ablations, sharded, chaos, chaossweep, byzantine")
	scale := flag.Float64("scale", 1.0, "population/duration scale (0.08 = CI, 1.0 = paper-like)")
	flag.Float64Var(&chaosCfg.DropRate, "drop", chaosCfg.DropRate, "chaos: per-message drop probability on every link")
	flag.Float64Var(&chaosCfg.DupRate, "dup", chaosCfg.DupRate, "chaos: per-message duplication probability on every link")
	flag.Int64Var(&chaosCfg.Seed, "chaos-seed", chaosCfg.Seed, "chaos: fault RNG seed (same seed reproduces the run)")
	flag.IntVar(&chaosCfg.Moves, "moves", chaosCfg.Moves, "chaos: number of back-and-forth moves to drive")
	flag.Float64Var(&byzCfg.CorruptRate, "corrupt", byzCfg.CorruptRate, "byzantine: per-message in-flight corruption probability on every link")
	flag.IntVar(&byzCfg.Equivocators, "equivocators", byzCfg.Equivocators, "byzantine: equivocating validators per BFT cluster")
	flag.BoolVar(&metricsOn, "metrics", false, "chaos/chaossweep/byzantine: render stage-latency histograms, gauges and loop-wait counters")
	flag.StringVar(&traceFile, "trace", "", "chaos: dump a JSONL span trace to this file (implies -metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after final GC) to this file")
	flag.Parse()
	chaosCfg.Metrics = metricsOn || traceFile != ""
	chaosCfg.Trace = traceFile != ""
	// The byzantine cell shares the chaos flags but keeps its own defaults
	// (5% faults, not 20%), so only explicitly set flags carry over.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "drop":
			byzCfg.DropRate = chaosCfg.DropRate
		case "dup":
			byzCfg.DupRate = chaosCfg.DupRate
		case "chaos-seed":
			byzCfg.Seed = chaosCfg.Seed
		case "moves":
			byzCfg.Moves = chaosCfg.Moves
		}
	})
	byzCfg.Metrics = metricsOn
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "movebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "movebench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if err := run(*experiment, bench.Scale(*scale)); err != nil {
		fmt.Fprintln(os.Stderr, "movebench:", err)
		os.Exit(1)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "movebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "movebench:", err)
			os.Exit(1)
		}
	}
}

var (
	chaosCfg  = bench.DefaultChaosConfig()
	byzCfg    = bench.DefaultByzantineConfig()
	metricsOn bool
	traceFile string
)

func run(experiment string, scale bench.Scale) error {
	runs := map[string]func(bench.Scale) error{
		"fig5":       runFig5,
		"fig6":       runFig6,
		"fig7":       runFig7,
		"fig8":       runFig89,
		"fig9":       runFig89,
		"ablations":  runAblations,
		"chaos":      runChaos,
		"chaossweep": runChaosSweep,
		"byzantine":  runByzantine,
		"sharded":    runSharded,
	}
	if experiment == "all" {
		for _, name := range []string{"fig5", "fig6", "fig7", "fig8", "ablations", "sharded"} {
			if err := runs[name](scale); err != nil {
				return err
			}
		}
		return nil
	}
	fn, ok := runs[experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return fn(scale)
}

func timed(name string, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return err
	}
	fmt.Printf("[%s finished in %v wall-clock]\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

func runFig5(scale bench.Scale) error {
	return timed("fig5", func() error {
		res, err := bench.RunFig5(scale)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})
}

func runFig6(scale bench.Scale) error {
	return timed("fig6", func() error {
		res, err := bench.RunFig6(scale)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})
}

func runFig7(scale bench.Scale) error {
	return timed("fig7", func() error {
		for _, retries := range []bool{false, true} {
			res, err := bench.RunFig7(scale, retries)
			if err != nil {
				return err
			}
			fmt.Println(res)
		}
		return nil
	})
}

func runFig89(bench.Scale) error {
	return timed("fig8+fig9", func() error {
		res, err := bench.RunFig8And9()
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})
}

func runAblations(bench.Scale) error {
	return timed("ablations", func() error {
		rows, err := bench.RunAblationGranularity([]uint64{1, 10, 100, 1000})
		if err != nil {
			return err
		}
		fmt.Println(bench.GranularityTable(rows))
		twopc, err := bench.RunAblation2PC()
		if err != nil {
			return err
		}
		fmt.Println(twopc)
		return nil
	})
}

func runChaos(bench.Scale) error {
	return timed("chaos", func() error {
		res, err := bench.RunChaos(chaosCfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if traceFile != "" {
			f, err := os.Create(traceFile)
			if err != nil {
				return err
			}
			if err := res.Registry.WriteTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("[trace: %d spans -> %s]\n\n", len(res.Registry.Spans()), traceFile)
		}
		return nil
	})
}

func runByzantine(bench.Scale) error {
	return timed("byzantine", func() error {
		res, err := bench.RunByzantine(byzCfg)
		if err != nil {
			return err
		}
		fmt.Println(res)
		return nil
	})
}

func runChaosSweep(bench.Scale) error {
	return timed("chaossweep", func() error {
		cfgs := bench.DefaultChaosSweep()
		for i := range cfgs {
			cfgs[i].Metrics = chaosCfg.Metrics
		}
		results, err := bench.RunChaosSweep(cfgs)
		if err != nil {
			return err
		}
		for _, res := range results {
			fmt.Println(res)
		}
		return nil
	})
}

func runSharded(bench.Scale) error {
	return timed("sharded", func() error {
		fmt.Println("sharded scaling: congested home shard, auto-migration policy on/off")
		fmt.Printf("%-7s %-7s %12s %10s %8s %8s %10s\n",
			"chains", "policy", "committed", "tx/s", "moves", "spread", "wall")
		base := make(map[int]float64)
		for _, chains := range []int{4, 16, 64} {
			for _, policy := range []bool{false, true} {
				res, err := workload.RunShardedScaling(workload.DefaultShardedScalingConfig(chains, policy))
				if err != nil {
					return err
				}
				line := fmt.Sprintf("%-7d %-7v %12d %10.1f %8d %8d %10s",
					chains, policy, res.Committed, res.Throughput,
					res.Moves.Completed, res.FinalSpread, res.Wall.Round(time.Millisecond))
				if policy {
					line += fmt.Sprintf("   gain %.2fx", res.Throughput/base[chains])
				} else {
					base[chains] = res.Throughput
				}
				fmt.Println(line)
			}
		}
		fmt.Println()
		return nil
	})
}
