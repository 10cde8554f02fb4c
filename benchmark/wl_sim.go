package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/state"
	"scmove/internal/universe"
	"scmove/internal/workload"
)

// The two discrete-event replays are closed functions of internal/workload:
// they build their universe, run to completion and return. The benchmark
// therefore measures them in rounds — one call is one round of fixed,
// seeded work — and repeats rounds until the measured seconds are used.
// Round k's seed derives from (--seed, k). In an untraced run the final round
// reuses round 0's seed, so the run carries its own exact-repeat check at no
// extra cost; in a traced run the traced pass is the untraced pass's repeat.

// simRound is what one round of a replay reports.
type simRound struct {
	ops      int           // committed transactions
	sim      time.Duration // simulated time the round covered
	sig      string        // everything simulated that must repeat exactly
	simTxS   float64
	failFrac float64
	extra    map[string]float64
}

// runRounds drives a replay: set-up probe, round, repeat. setup builds and
// tears down a universe of the round's shape (the round builds its own
// inside the workload function, which the benchmark cannot split); run
// executes round k with the given seed.
func runRounds(o options, tr *tracer, name string,
	setup func() error, run func(seed int64) (*simRound, error)) (*phase, error) {
	ph := newPhase()
	var first *simRound
	var simPerWall []float64
	span := time.Duration(o.seconds * float64(time.Second))
	var measured, lastWall time.Duration
	for k := 0; ; k++ {
		if o.trace && k > 0 && measured >= span {
			break
		}
		// Untraced run: the round that uses up the measured seconds is the
		// last, and repeats round 0.
		repeat := !o.trace && k > 0 && measured+lastWall >= span
		seed := subSeed(o.seed, fmt.Sprintf("%s/%d", name, k))
		if repeat {
			seed = subSeed(o.seed, name+"/0")
		}
		start := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		ph.setups = append(ph.setups, time.Since(start))
		tr.add(int64(k), 0, "universe.new", start, time.Now())

		var sr *simRound
		start = time.Now()
		rd, err := measureRound(func() (int, error) {
			var err error
			sr, err = run(seed)
			if err != nil {
				return 0, err
			}
			return sr.ops, nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, k, err)
		}
		tr.add(int64(k), 0, name+".round", start, time.Now())
		measured, lastWall = measured+rd.wall, rd.wall
		ph.rounds = append(ph.rounds, rd)
		ph.attempted += sr.ops
		ph.waits = append(ph.waits, ms(rd.wall))
		simPerWall = append(simPerWall, sr.sim.Seconds()/rd.wall.Seconds())
		if first == nil {
			first = sr
		}
		if repeat {
			if sr.sig != first.sig {
				ph.failf("round %d repeated round 0's seed and disagreed:\n    %s\n    %s", k, first.sig, sr.sig)
			}
			break
		}
	}
	ph.peak = peakRSSMiB()
	ph.waitWhat = "wall time of one round"
	ph.sig = first.sig
	ph.extra["e2e.sim_tx_s"] = first.simTxS
	ph.extra["e2e.failed_frac"] = first.failFrac
	ph.extra["simclock.sim_s_per_wall_s"] = median(simPerWall)
	for k, v := range first.extra {
		ph.extra[k] = v
	}
	ph.notef("round 0: %s", first.sig)
	return ph, nil
}

// kittiesConfig is the Fig. 5 replay, scaled so one round is a couple of
// seconds of wall time on two cores.
func kittiesConfig(o options, seed int64) workload.KittiesConfig {
	cfg := workload.KittiesConfig{
		Shards: 4, Users: 512, PromoCats: 4000, Breeds: 8000,
		LocalityBias: 0.93, OutstandingLimit: 250, ShardCapacity: 175,
		Seed: seed, MaxDuration: 12 * time.Hour,
	}
	if o.smoke {
		cfg.Shards, cfg.Users, cfg.PromoCats, cfg.Breeds = 2, 32, 120, 240
	}
	return cfg
}

func runKitties(o options, tr *tracer) (*phase, error) {
	setup := func() error {
		// The universe RunKitties builds for itself: S Burrow shards, one
		// client per user plus the game owner, the registry in genesis.
		cfg := kittiesConfig(o, 0)
		ucfg := universe.ShardedConfig(cfg.Shards, cfg.Users+1)
		owner := universe.ClientKey(cfg.Users).Address()
		ucfg.ExtraGenesis = func(_ hashing.ChainID, db *state.DB) {
			contracts.GenesisKittyRegistry(db, contracts.WellKnown("kitties-registry"), owner)
		}
		for i := range ucfg.Specs {
			ucfg.Specs[i].Config.MaxBlockTxs = cfg.ShardCapacity
		}
		u, err := universe.New(ucfg)
		if err != nil {
			return err
		}
		return u.Close()
	}
	run := func(seed int64) (*simRound, error) {
		res, err := workload.RunKitties(kittiesConfig(o, seed))
		if err != nil {
			return nil, err
		}
		if res.OpsCompleted+res.FailedOps != res.PlannedOps {
			return nil, fmt.Errorf("%d completed + %d failed of %d planned ops", res.OpsCompleted, res.FailedOps, res.PlannedOps)
		}
		return &simRound{
			ops: res.TxsCommitted, sim: res.SimDuration, simTxS: res.Throughput,
			failFrac: float64(res.FailedOps) / float64(res.PlannedOps),
			sig: fmt.Sprintf("planned=%d completed=%d failed=%d txs=%d sim=%v sim_tx_s=%v cross=%v",
				res.PlannedOps, res.OpsCompleted, res.FailedOps, res.TxsCommitted, res.SimDuration, res.Throughput, res.CrossRate),
		}, nil
	}
	return runRounds(o, tr, "kitties", setup, run)
}

// shardConfig is the 64-chain scaling cell with the migration policy on.
func shardConfig(o options, chains int, seed int64) workload.ShardedScalingConfig {
	cfg := workload.DefaultShardedScalingConfig(chains, true)
	cfg.Validators = 4
	cfg.Seed = seed
	// Seven measured minutes after three of warm-up: with the default four
	// some seeds end with one contract still on the hot shard (spread 63).
	cfg.Duration = 7 * time.Minute
	if o.smoke {
		cfg.Users = 50 * chains
		cfg.Warmup, cfg.Duration = 2*time.Minute, 3*time.Minute
	}
	return cfg
}

func shardChains(o options) int {
	if o.smoke {
		return 4
	}
	return 64
}

// fingerprintCounter reads one "name=value" line of a sharded-run
// fingerprint; the universe's counters are only reachable through it.
func fingerprintCounter(fp, prefix string) float64 {
	var sum float64
	for _, line := range strings.Split(fp, "\n") {
		name, val, ok := strings.Cut(line, "=")
		if ok && strings.HasPrefix(name, prefix) {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

func runShardMigrate(o options, tr *tracer) (*phase, error) {
	chains := shardChains(o)
	setup := func() error {
		cfg := shardConfig(o, chains, 0)
		ucfg := universe.ShardedScaleConfig(cfg.Chains, cfg.Validators, cfg.Users)
		ucfg.Clients = cfg.Contracts
		u, err := universe.New(ucfg)
		if err != nil {
			return err
		}
		return u.Close()
	}
	run := func(seed int64) (*simRound, error) {
		cfg := shardConfig(o, chains, seed)
		res, err := workload.RunShardedScaling(cfg)
		if err != nil {
			return nil, err
		}
		if res.FinalSpread != chains {
			return nil, fmt.Errorf("final spread %d, want %d", res.FinalSpread, chains)
		}
		if res.Moves.Failed != 0 {
			return nil, fmt.Errorf("%d migrations failed", res.Moves.Failed)
		}
		sum := hashing.Sum([]byte(res.Fingerprint))
		return &simRound{
			ops: int(res.Committed), sim: cfg.Warmup + cfg.Duration, simTxS: res.Throughput,
			sig: fmt.Sprintf("committed=%d sim_tx_s=%v moves=%d spread=%d fingerprint=%x",
				res.Committed, res.Throughput, res.Moves.Completed, res.FinalSpread, sum[:8]),
			extra: map[string]float64{
				"shard.moves_executed": float64(res.Moves.Completed),
				"shard.final_spread":   float64(res.FinalSpread),
				"relay.retries":        fingerprintCounter(res.Fingerprint, "relay.move1_retries") + fingerprintCounter(res.Fingerprint, "relay.move2_retries"),
			},
		}, nil
	}
	ph, err := runRounds(o, tr, "shard", setup, run)
	if err != nil || tr == nil {
		return ph, err
	}
	// Traced pass only: the two ratios that need extra runs, on a
	// quarter-scale slice (16 chains) of the same cell.
	quarter := max(chains/4, 2)
	timeRun := func(mutate func(*workload.ShardedScalingConfig)) (*workload.ShardedScalingResult, time.Duration, error) {
		cfg := shardConfig(o, quarter, subSeed(o.seed, "shard/0"))
		mutate(&cfg)
		start := time.Now()
		res, err := workload.RunShardedScaling(cfg)
		tr.add(int64(quarter), 0, "shard.quarter", start, time.Now())
		return res, time.Since(start), err
	}
	on, onWall, err := timeRun(func(*workload.ShardedScalingConfig) {})
	if err != nil {
		return nil, err
	}
	serial, serialWall, err := timeRun(func(c *workload.ShardedScalingConfig) { c.ParallelTick = false })
	if err != nil {
		return nil, err
	}
	if serial.Fingerprint != on.Fingerprint {
		ph.failf("quarter-scale slice: parallel-tick fingerprint diverged from serial")
	}
	off, _, err := timeRun(func(c *workload.ShardedScalingConfig) { c.Policy = false })
	if err != nil {
		return nil, err
	}
	ph.extra["simclock.lane_speedup"] = serialWall.Seconds() / onWall.Seconds()
	if off.Throughput > 0 {
		ph.extra["shard.policy_gain"] = on.Throughput / off.Throughput
	}
	ph.notef("quarter-scale slice (%d chains): ParallelTick on %.2f s, off %.2f s; policy on %.1f, off %.1f sim tx/s",
		quarter, onWall.Seconds(), serialWall.Seconds(), on.Throughput, off.Throughput)
	return ph, nil
}
