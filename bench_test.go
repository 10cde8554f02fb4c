// Benchmarks regenerating the paper's evaluation, one per table/figure
// (run with `go test -bench=. -benchmem`). Each reports the headline
// domain metric via b.ReportMetric; EXPERIMENTS.md records paper-vs-
// measured for the full-scale runs of cmd/movebench.
package scmove

import (
	"testing"
	"time"

	"scmove/internal/bench"
	"scmove/internal/contracts"
	"scmove/internal/hashing"
	"scmove/internal/u256"
)

// BenchmarkFig5Kitties replays the synthetic CryptoKitties trace on 1, 2
// and 4 shards (Fig. 5 left; use cmd/movebench for the full 8-shard run).
func BenchmarkFig5Kitties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig5Shards(bench.ScaleCI, []int{1, 2, 4})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Throughput, "tx/s@4shards")
		b.ReportMetric(last.PeakTPS, "peak-tx/s@4shards")
	}
}

// BenchmarkFig6SCoin measures the cross-shard throughput matrix (Fig. 6).
func BenchmarkFig6SCoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6Grid(bench.ScaleCI, []int{1, 4}, []float64{0, 0.10})
		if err != nil {
			b.Fatal(err)
		}
		if tps, ok := res.Throughput(4, 10); ok {
			b.ReportMetric(tps, "tx/s@4shards10%")
		}
	}
}

// BenchmarkFig7LatencyCDF measures the conflict-free latency distribution
// (Fig. 7 right).
func BenchmarkFig7LatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(bench.ScaleCI, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SingleMean.Seconds(), "single-shard-s")
		b.ReportMetric(res.CrossMean.Seconds(), "cross-shard-s")
	}
}

// BenchmarkFig7Retries measures the conflict/retry mode (Fig. 7 left).
func BenchmarkFig7Retries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(bench.ScaleCI, true)
		if err != nil {
			b.Fatal(err)
		}
		total, once := 0, res.RetryCounts[1]
		for _, n := range res.RetryCounts {
			total += n
		}
		if total > 0 {
			b.ReportMetric(float64(once)/float64(total), "retried-once-frac")
		}
	}
}

// BenchmarkFig8IBCLatency measures the per-phase move latency for the five
// applications in both directions (Fig. 8).
func BenchmarkFig8IBCLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8And9()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := ibcRow(res, bench.AppStore1, 1); ok {
			b.ReportMetric(row.TotalLatency().Seconds(), "eth->burrow-total-s")
		}
		if row, ok := ibcRow(res, bench.AppStore1, 2); ok {
			b.ReportMetric(row.TotalLatency().Seconds(), "burrow->eth-total-s")
		}
	}
}

// ibcRow returns res's entry for an app and direction.
func ibcRow(res *bench.IBCResult, app string, from hashing.ChainID) (bench.IBCRow, bool) {
	for _, row := range res.Rows {
		if row.App == app && row.From == from {
			return row, true
		}
	}
	return bench.IBCRow{}, false
}

// BenchmarkFig9Gas measures the gas and monetary cost breakdown (Fig. 9).
func BenchmarkFig9Gas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8And9()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := ibcRow(res, bench.AppSCoin, 2); ok {
			b.ReportMetric(float64(row.TotalGas())/1e6, "scoin-Mgas")
			b.ReportMetric(row.USD(), "scoin-usd")
		}
		if row, ok := ibcRow(res, bench.AppStore100, 2); ok {
			b.ReportMetric(float64(row.TotalGas())/1e6, "store100-Mgas")
		}
	}
}

// BenchmarkAblationGranularity measures the per-user vs monolithic design
// (DESIGN.md ablation).
func BenchmarkAblationGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunAblationGranularity([]uint64{100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].MonolithicGas)/float64(rows[0].PerUserGas), "mono/per-user")
	}
}

// BenchmarkAblation2PC measures the Move protocol against the 2PC-style
// baseline (DESIGN.md ablation).
func BenchmarkAblation2PC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblation2PC()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MoveLatency.Seconds(), "move-s")
		b.ReportMetric(res.TwoPCLatency.Seconds(), "2pc-s")
	}
}

// BenchmarkSingleMove is the micro benchmark of one full cross-chain move
// (Burrow-like to Ethereum-like) including consensus and relays.
func BenchmarkSingleMove(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, err := NewUniverse(TwoChainConfig(1))
		if err != nil {
			b.Fatal(err)
		}
		cl := u.Client(0)
		store, err := u.MustDeploy(cl, u.Chain(2), contracts.StoreName,
			contracts.StoreConstructorArgs(cl.Address(), 10), u256.Zero(), 10*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		res, err := u.MoveAndWait(cl, 2, 1, store, 30*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Total().Seconds(), "sim-latency-s")
	}
}
