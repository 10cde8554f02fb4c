package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if h.P50() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// 100 samples, 1..100 seconds: quantiles must land near the rank with
	// bucket-resolution error (buckets double, so within a factor of 2).
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Second)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != time.Second || h.Max() != 100*time.Second {
		t.Fatalf("min/max = %s/%s", h.Min(), h.Max())
	}
	if mean := h.Mean(); mean != 50500*time.Millisecond {
		t.Fatalf("mean = %s", mean)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.50, 50 * time.Second}, {0.95, 95 * time.Second}, {0.99, 99 * time.Second}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Fatalf("q%.0f = %s, want within 2x of %s", c.q*100, got, c.want)
		}
	}
	if h.Quantile(1) != h.Max() || h.Quantile(0) != h.Min() {
		t.Fatal("quantile extremes must clamp to observed min/max")
	}
	// Single-sample histograms report that sample everywhere.
	one := &Histogram{}
	one.Observe(3 * time.Second)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := one.Quantile(q); got != 3*time.Second {
			t.Fatalf("single-sample q%.0f = %s", q*100, got)
		}
	}
}

func TestHistogramDeterministicAcrossOrder(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	samples := []time.Duration{time.Second, 90 * time.Second, 5 * time.Second, 42 * time.Millisecond}
	for _, d := range samples {
		a.Observe(d)
	}
	for i := len(samples) - 1; i >= 0; i-- {
		b.Observe(samples[i])
	}
	if a.Summarize() != b.Summarize() {
		t.Fatalf("summaries differ by insertion order: %v vs %v", a.Summarize(), b.Summarize())
	}
}

func TestRegistryCount(t *testing.T) {
	r := NewRegistry()
	r.Count("parallel.committed", 3)
	r.Count("parallel.committed", 2)
	if got := r.Counters().Get("parallel.committed"); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Observe("x", time.Second)
	r.Count("c", 1)
	r.Span("y", 0, time.Second)
	r.Event("z", time.Second)
	r.SetGauge("g", 1)
	r.MaxGauge("g", 2)
	r.AddGauge("g", 3)
	r.EnableTrace(true)
	if r.Enabled() || r.TraceEnabled() {
		t.Fatal("nil registry must report disabled")
	}
	if r.Counters() != nil || r.Histogram("x") != nil || r.Spans() != nil {
		t.Fatal("nil registry must return nil views")
	}
	if r.Gauge("g") != 0 || len(r.GaugeNames()) != 0 || len(r.HistogramNames()) != 0 {
		t.Fatal("nil registry must read as empty")
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if r.Report() != "" {
		t.Fatal("nil registry must render nothing")
	}
	if r.StageTable() == nil || r.GaugeTable() == nil {
		t.Fatal("tables must still render (headers only)")
	}
}

func TestRegistrySpansAndTrace(t *testing.T) {
	r := NewRegistry()
	// Spans feed histograms with or without tracing; only tracing retains them.
	r.Span("move1.commit", 0, 3*time.Second)
	if len(r.Spans()) != 0 {
		t.Fatal("spans must not be retained before EnableTrace")
	}
	r.EnableTrace(true)
	r.Span("move1.commit", 10*time.Second, 14*time.Second, A("chain", "1"))
	r.Event("move1.submit", 10*time.Second, A("attempt", "1"))
	if h := r.Histogram("move1.commit"); h == nil || h.Count() != 2 {
		t.Fatalf("histogram must see both spans, got %+v", r.Histogram("move1.commit"))
	}
	if h := r.Histogram("move1.submit"); h != nil {
		t.Fatal("events must not create histograms")
	}
	spans := r.Spans()
	if len(spans) != 2 || spans[0].Name != "move1.commit" || spans[1].Name != "move1.submit" {
		t.Fatalf("retained spans = %+v", spans)
	}
	if spans[0].End-spans[0].Start != 4*time.Second || spans[1].End != spans[1].Start {
		t.Fatal("span durations wrong")
	}

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d: %q", len(lines), buf.String())
	}
	want := `{"name":"move1.commit","start_ns":10000000000,"end_ns":14000000000,"dur_ns":4000000000,"attrs":{"chain":"1"}}`
	if lines[0] != want {
		t.Fatalf("trace line = %s, want %s", lines[0], want)
	}

	// Two registries fed identically dump identical traces (determinism).
	r2 := NewRegistry()
	r2.EnableTrace(true)
	r2.Span("move1.commit", 10*time.Second, 14*time.Second, A("chain", "1"))
	r2.Event("move1.submit", 10*time.Second, A("attempt", "1"))
	var buf2 bytes.Buffer
	if err := r2.WriteTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if lines2 := strings.Split(strings.TrimRight(buf2.String(), "\n"), "\n"); lines2[0] != lines[0] {
		t.Fatal("identical spans must dump identical JSONL")
	}
}

func TestRegistryGaugesAndReport(t *testing.T) {
	r := NewRegistryWith(NewCounters())
	r.Counters().Inc("relay.retries")
	r.SetGauge("txpool.depth.1", 7)
	r.MaxGauge("txpool.peak.1", 3)
	r.MaxGauge("txpool.peak.1", 9)
	r.MaxGauge("txpool.peak.1", 5) // must not lower the high-water mark
	r.AddGauge("wan.inflight", 2)
	r.AddGauge("wan.inflight", -1)
	if r.Gauge("txpool.peak.1") != 9 || r.Gauge("wan.inflight") != 1 {
		t.Fatalf("gauges wrong: peak=%v inflight=%v", r.Gauge("txpool.peak.1"), r.Gauge("wan.inflight"))
	}
	r.Span("p.wait", 0, 16*time.Second)
	rep := r.Report()
	for _, want := range []string{"Stage latency", "p.wait", "16.0s", "Gauges", "txpool.depth.1", "7"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if r.Counters().Get("relay.retries") != 1 {
		t.Fatal("folded counters must be shared")
	}
}
