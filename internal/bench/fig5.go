package bench

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"scmove/internal/hashing"
	"scmove/internal/metrics"
	"scmove/internal/workload"
)

// Fig5Row is one bar of Fig. 5 (left): ScalableKitties replay throughput
// for a shard count.
type Fig5Row struct {
	Shards int
	// Throughput averages over the whole replay, including the starved
	// tail of the DAG.
	Throughput float64
	// PeakTPS is the best sustained bucket — the plateau of Fig. 5 right,
	// reached while the dependency graph still has ready transactions.
	PeakTPS float64
	// CrossRate is the realized cross-blockchain transaction rate — the
	// paper quotes 5.86 / 7.93 / 7.85 % for 2/4/8 shards (§VII-B).
	CrossRate float64
	// Starved reports whether any shard ran out of ready transactions (the
	// reason the paper's 8-shard bar is below linear).
	Starved bool
}

// Fig5Result reproduces both panels of Fig. 5.
type Fig5Result struct {
	Rows []Fig5Row
	// Timeline is the aggregated throughput over time for the largest shard
	// count (Fig. 5 right).
	Timeline []metrics.Point
	// StarvedAt are the per-shard "limit reached" markers of Fig. 5 right.
	StarvedAt map[hashing.ChainID]time.Duration
}

// RunFig5 replays the synthetic CryptoKitties trace on 1, 2, 4 and 8
// shards.
func RunFig5(scale Scale) (*Fig5Result, error) {
	return RunFig5Shards(scale, []int{1, 2, 4, 8})
}

// RunFig5Shards replays the trace for the given shard counts. Each shard
// count is an independent simulation cell; cells run in parallel and the
// rows are assembled in shardCounts order.
func RunFig5Shards(scale Scale, shardCounts []int) (*Fig5Result, error) {
	outs, err := runCells(len(shardCounts), func(i int) (*workload.KittiesResult, error) {
		// The trace must be wide enough that the DAG, not the client
		// window, limits submission only at the largest shard counts (the
		// paper's 8-shard starvation): keep at least 2000 initial cats so
		// up to ~1000 independent breeds are in flight.
		promos := scale.count(8000)
		if promos < 2000 {
			promos = 2000
		}
		breeds := scale.count(16000)
		if breeds < 3000 {
			breeds = 3000
		}
		users := scale.clients(512)
		if users < 128 {
			users = 128
		}
		cfg := workload.KittiesConfig{
			Shards:           shardCounts[i],
			Users:            users,
			PromoCats:        promos,
			Breeds:           breeds,
			LocalityBias:     0.93,
			OutstandingLimit: 250,
			ShardCapacity:    175,
			Seed:             5,
			MaxDuration:      12 * time.Hour,
		}
		out, err := workload.RunKitties(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig5 shards=%d: %w", shardCounts[i], err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	for i, out := range outs {
		peak := 0.0
		for _, p := range out.Timeline.Series() {
			if p.TPS > peak {
				peak = p.TPS
			}
		}
		res.Rows = append(res.Rows, Fig5Row{
			Shards:     shardCounts[i],
			Throughput: out.Throughput,
			PeakTPS:    peak,
			CrossRate:  out.CrossRate,
			Starved:    len(out.StarvedAt) > 0,
		})
		if i == len(outs)-1 {
			res.Timeline = out.Timeline.Series()
			res.StarvedAt = out.StarvedAt
		}
	}
	return res, nil
}

// String renders the paper-style output.
func (r *Fig5Result) String() string {
	tbl := metrics.NewTable("shards", "txs/s", "peak txs/s", "cross-chain %", "starved")
	for _, row := range r.Rows {
		tbl.AddRow(row.Shards, fmtTPS(row.Throughput), fmtTPS(row.PeakTPS),
			fmt.Sprintf("%.2f", row.CrossRate*100), row.Starved)
	}
	out := "Fig. 5 (left): ScalableKitties throughput vs shards\n" + tbl.String()
	if len(r.Timeline) > 0 {
		out += "\nFig. 5 (right): aggregated throughput over time (largest run)\n"
		tl := metrics.NewTable("t", "tx/s")
		for _, p := range r.Timeline {
			tl.AddRow(fmtDur(p.At), fmtTPS(p.TPS))
		}
		out += tl.String()
		if len(r.StarvedAt) > 0 {
			out += "limit-reached markers:\n"
			for _, id := range slices.Sorted(maps.Keys(r.StarvedAt)) {
				out += fmt.Sprintf("  %s at %s\n", id, fmtDur(r.StarvedAt[id]))
			}
		}
	}
	return out
}
