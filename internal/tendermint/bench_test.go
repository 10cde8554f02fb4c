package tendermint

import (
	"math"
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

// heightProbe is ten validators on the simulated WAN (10 % jitter, no
// faults) committing empty heights: all the work is proposals, votes,
// their deliveries and the validators' timers.
type heightProbe struct {
	sched   *simclock.Scheduler
	net     *simnet.Network
	cluster *Cluster
}

// deliveriesPerHeight is a height's WAN messages at n = 10: 9 proposals,
// 90 prevotes and 90 precommits.
const deliveriesPerHeight = 189

// newHeightProbe starts the cluster and runs its first 50 heights, which
// grow the vote tables, the free lists and the scheduler's queue to nearly
// all they will hold. From then on a list grows only when the jitter makes
// a new high-water mark of messages in flight or buffered, one record at a
// time, ever more rarely.
func newHeightProbe(tb testing.TB) *heightProbe {
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
		tb.Fatal(err)
	}
	cluster.Start()
	p := &heightProbe{sched: sched, net: net, cluster: cluster}
	p.commit(tb, 50)
	return p
}

// commit runs the cluster until it has committed k more heights.
func (p *heightProbe) commit(tb testing.TB, k uint64) {
	for height := p.cluster.committed + k; p.cluster.committed < height; {
		if !p.sched.Step() {
			tb.Fatalf("the cluster stopped at height %d", p.cluster.committed)
		}
	}
}

// measure commits k more heights and returns the WAN messages delivered and
// the heap objects allocated meanwhile.
func (p *heightProbe) measure(tb testing.TB, k uint64) (deliveries, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start, _ := p.net.Stats()
	p.commit(tb, k)
	runtime.ReadMemStats(&ms)
	end, _ := p.net.Stats()
	return end - start, ms.Mallocs - before
}

// BenchmarkClusterHeight is the per-message probe of the discrete-event
// consensus path: the heightProbe commits b.N heights. It reports the wall
// time and allocations per delivered WAN message, and the deliveries per
// height (deliveriesPerHeight); TestHeightProbeFigures pins the last two.
func BenchmarkClusterHeight(b *testing.B) {
	p := newHeightProbe(b)
	b.ResetTimer()
	deliveries, mallocs := p.measure(b, uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(deliveries), "ns/delivery")
	b.ReportMetric(float64(mallocs)/float64(deliveries), "allocs/delivery")
	b.ReportMetric(float64(deliveries)/float64(b.N), "deliveries/height")
}

// TestHeightProbeFigures pins what BenchmarkClusterHeight reports, over
// 1 000 heights: deliveriesPerHeight deliveries per height, and 0.000
// allocations per delivery to three places — fewer than one object per
// 2 000 deliveries, the new high-water marks of the free lists and the
// queue. A boxed vote per cast vote alone would cost about 0.1.
func TestHeightProbeFigures(t *testing.T) {
	const heights = 1000
	p := newHeightProbe(t)
	deliveries, mallocs := p.measure(t, heights)
	if perHeight := math.Round(float64(deliveries) / heights); perHeight != deliveriesPerHeight {
		t.Fatalf("%d heights delivered %d messages, %.0f per height; want %d", heights, deliveries, perHeight, deliveriesPerHeight)
	}
	if perDelivery := float64(mallocs) / float64(deliveries); perDelivery >= 0.0005 {
		t.Fatalf("%d heights allocated %d objects in %d deliveries: %.4f per delivery, want 0.000",
			heights, mallocs, deliveries, perDelivery)
	}
}

// TestClusterHeightAllocatesNothing: once the first heights have grown its
// tables, free lists and queue, a ten-validator cluster commits a height —
// a proposal, 180 votes, their 189 deliveries, round timeouts and the
// wait for the next height — without allocating.
func TestClusterHeightAllocatesNothing(t *testing.T) {
	p := newHeightProbe(t)
	if allocs := testing.AllocsPerRun(50, func() { p.commit(t, 1) }); allocs != 0 {
		t.Fatalf("a steady-state height allocates %.1f objects", allocs)
	}
}
