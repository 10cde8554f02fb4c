package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTimelineSeries(t *testing.T) {
	tl := NewTimeline(time.Second)
	tl.Record(0, 10)
	tl.Record(500*time.Millisecond, 10) // same bucket
	tl.Record(2*time.Second, 30)        // bucket 2; bucket 1 empty
	pts := tl.Series()
	if len(pts) != 3 {
		t.Fatalf("series = %d points", len(pts))
	}
	if pts[0].TPS != 20 || pts[1].TPS != 0 || pts[2].TPS != 30 {
		t.Fatalf("series = %+v", pts)
	}
	if tl.Total() != 50 {
		t.Fatalf("total = %d", tl.Total())
	}
}

func TestTimelineEmpty(t *testing.T) {
	tl := NewTimeline(time.Second)
	if tl.Series() != nil || tl.Total() != 0 {
		t.Fatal("empty timeline must be zero-valued")
	}
}

func TestLatenciesStats(t *testing.T) {
	l := NewLatencies()
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Second)
	}
	if l.Len() != 100 {
		t.Fatalf("len = %d", l.Len())
	}
	if got := l.Mean(); got != 50500*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
}

func TestLatenciesCDF(t *testing.T) {
	l := NewLatencies()
	// Record in reverse to exercise sorting.
	for i := 10; i >= 1; i-- {
		l.Record(time.Duration(i) * time.Second)
	}
	cdf := l.CDF(5)
	if len(cdf) != 5 {
		t.Fatalf("cdf = %d points", len(cdf))
	}
	if cdf[4].Fraction != 1.0 || cdf[4].Latency != 10*time.Second {
		t.Fatalf("last point = %+v", cdf[4])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Latency < cdf[i-1].Latency || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatal("CDF must be monotone")
		}
	}
}

func TestFractionAbove(t *testing.T) {
	l := NewLatencies()
	for i := 1; i <= 10; i++ {
		l.Record(time.Duration(i) * time.Second)
	}
	// The paper's Fig. 7 observation: ~10 % of transactions above 30 s when
	// 10 % are cross-shard; here 30 % are above 7 s.
	if got := l.FractionAbove(7 * time.Second); got != 0.3 {
		t.Fatalf("fraction above 7s = %v", got)
	}
	if got := l.FractionAbove(time.Hour); got != 0 {
		t.Fatalf("fraction above 1h = %v", got)
	}
}

func TestLatenciesEmpty(t *testing.T) {
	l := NewLatencies()
	if l.Mean() != 0 || l.CDF(3) != nil || l.FractionAbove(0) != 0 {
		t.Fatal("empty recorder must be zero-valued")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("shards", "tx/s")
	tbl.AddRow(1, 37.5)
	tbl.AddRow(8, 152.25)
	out := tbl.String()
	if !strings.Contains(out, "shards") || !strings.Contains(out, "152.25") {
		t.Fatalf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
}
