package tendermint

import (
	"runtime"
	"testing"
	"time"

	"scmove/internal/simclock"
	"scmove/internal/simnet"
)

// fixedApp proposes the same payload at every height and ignores commits.
type fixedApp []byte

func (a fixedApp) Propose(uint64) []byte { return a }
func (fixedApp) Commit(uint64, []byte)   {}

// BenchmarkClusterHeight is the per-message probe of the discrete-event
// consensus path: ten validators on the simulated WAN (10 % jitter, no
// faults) commit b.N empty heights — all the work is proposals, votes and
// their deliveries. It reports the wall time and allocations per delivered
// WAN message, and the deliveries per height (189 at n = 10: 9 proposals,
// 90 prevotes, 90 precommits).
func BenchmarkClusterHeight(b *testing.B) {
	const n = 10
	sched := simclock.New()
	net := simnet.New(sched, simnet.Config{Seed: 1, Faults: simnet.LinkFaults{JitterFrac: 0.1}})
	ids := make([]simnet.NodeID, n)
	regions := make([]simnet.Region, n)
	for i := range ids {
		ids[i] = simnet.NodeID(i + 1)
		regions[i] = simnet.Region(i % simnet.RegionCount)
	}
	cluster, err := NewCluster(sched, net, fixedApp("empty block"), 5*time.Second, ids, regions)
	if err != nil {
		b.Fatal(err)
	}
	cluster.Start()
	commit := func(height uint64) {
		for cluster.committed < height {
			if !sched.Step() {
				b.Fatalf("the cluster stopped at height %d", cluster.committed)
			}
		}
	}
	// The first heights grow the vote tables, the free list and the queue.
	commit(3)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start, _ := net.Stats()
	b.ResetTimer()
	commit(cluster.committed + uint64(b.N))
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	end, _ := net.Stats()
	deliveries := float64(end - start)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/deliveries, "ns/delivery")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/deliveries, "allocs/delivery")
	b.ReportMetric(deliveries/float64(b.N), "deliveries/height")
}
