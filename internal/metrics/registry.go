package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Registry is the unified observability surface of one simulation run: the
// event Counters the chaos tooling already reports, point-in-time gauges
// (queue depths, in-flight messages), fixed-bucket latency Histograms over
// simulated time (the per-stage Move-protocol costs of Figs. 5–9), and an
// optional structured trace of Spans.
//
// Every method is nil-safe: a nil *Registry records nothing and costs one
// pointer comparison, so instrumented components take an optional registry
// and the layer is off by default. Recording never schedules events, draws
// randomness, or touches simulation state — enabling it cannot perturb
// simulated results.
//
// Simulation-driven registries are effectively single-threaded (all
// recording happens on the scheduler goroutine), but the front door
// records wall-clock samples from arbitrary RPC handler goroutines, so
// every recording method is additionally guarded by an internal mutex.
// Reading a *Histogram returned by Histogram() is only safe once
// concurrent recording has stopped (harnesses read after the run).
type Registry struct {
	mu       sync.Mutex
	counters *Counters
	gauges   map[string]float64
	hists    map[string]*Histogram
	spans    []Span
	trace    bool
}

// NewRegistry returns a registry with a fresh counter set.
func NewRegistry() *Registry { return NewRegistryWith(nil) }

// NewRegistryWith returns a registry folding an existing counter set (so a
// harness that already shares Counters gets one unified surface). A nil
// counters gets a fresh set.
func NewRegistryWith(counters *Counters) *Registry {
	if counters == nil {
		counters = NewCounters()
	}
	return &Registry{
		counters: counters,
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry records anything (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// Counters returns the folded counter set (nil for a nil registry).
func (r *Registry) Counters() *Counters {
	if r == nil {
		return nil
	}
	return r.counters
}

// Count adds n to the named event counter. Unlike Counters().Add it is
// nil-safe, so call sites instrumented with an optional registry need no
// guard of their own.
func (r *Registry) Count(name string, n uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.Add(name, n)
	r.mu.Unlock()
}

// EnableTrace switches span retention on or off. Histograms observe spans
// either way; the trace additionally keeps every span for the JSONL dump.
func (r *Registry) EnableTrace(on bool) {
	if r != nil {
		r.trace = on
	}
}

// TraceEnabled reports whether spans are retained.
func (r *Registry) TraceEnabled() bool { return r != nil && r.trace }

// Observe records one latency sample into the named histogram (created
// with the simulated-time bucket layout on first use).
func (r *Registry) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observeLocked(name, d, false)
	r.mu.Unlock()
}

// ObserveWall records one wall-clock latency sample into the named
// histogram, creating it with the microsecond-based wall-clock bucket
// layout on first use (see NewWallHistogram). A name observed through
// Observe first keeps its simulated-time layout.
func (r *Registry) ObserveWall(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observeLocked(name, d, true)
	r.mu.Unlock()
}

func (r *Registry) observeLocked(name string, d time.Duration, wall bool) {
	h := r.hists[name]
	if h == nil {
		if wall {
			h = NewWallHistogram()
		} else {
			h = &Histogram{}
		}
		r.hists[name] = h
	}
	h.Observe(d)
}

// Histogram returns the named histogram, or nil if nothing was observed
// under that name (always nil on a nil registry). The returned pointer is
// only safe to read once concurrent recording has stopped.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// HistogramNames returns every histogram name in sorted order.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SetGauge sets the named gauge to v.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// MaxGauge raises the named gauge to v if v exceeds its current value
// (high-water marks: peak queue depth, peak in-flight messages).
func (r *Registry) MaxGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// AddGauge adjusts the named gauge by delta (in-flight counts).
func (r *Registry) AddGauge(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] += delta
	r.mu.Unlock()
}

// Gauge returns the named gauge's value (zero if never set).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// GaugeNames returns every gauge name in sorted order.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// A builds an attribute.
func A(key, val string) Attr { return Attr{Key: key, Val: val} }

// Span is one traced interval (or, with Start == End, a point event) on
// the simulated timeline.
type Span struct {
	Name  string
	Start time.Duration
	End   time.Duration
	Attrs []Attr
}

// Span records a completed interval: its duration feeds the histogram of
// the same name, and with tracing enabled the span is retained for the
// JSONL dump.
func (r *Registry) Span(name string, start, end time.Duration, attrs ...Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observeLocked(name, end-start, false)
	if r.trace {
		r.spans = append(r.spans, Span{Name: name, Start: start, End: end, Attrs: attrs})
	}
	r.mu.Unlock()
}

// Event records a point span (submission, retry, recovery, failure). It
// feeds no histogram — occurrences are already counted by Counters — but is
// retained in the trace.
func (r *Registry) Event(name string, at time.Duration, attrs ...Attr) {
	if r == nil || !r.trace {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Start: at, End: at, Attrs: attrs})
	r.mu.Unlock()
}

// Spans returns the retained trace in emission order (simulated time order,
// since the simulation is single-threaded).
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// spanJSON is the JSONL wire form of one span. Field order is fixed and
// attrs marshal sorted by key, so dumps are byte-deterministic.
type spanJSON struct {
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"`
	EndNs   int64             `json:"end_ns"`
	DurNs   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// WriteTrace dumps the retained spans as JSON Lines, one span per line.
func (r *Registry) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, s := range r.spans {
		rec := spanJSON{
			Name:    s.Name,
			StartNs: int64(s.Start),
			EndNs:   int64(s.End),
			DurNs:   int64(s.End - s.Start),
		}
		if len(s.Attrs) > 0 {
			rec.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				rec.Attrs[a.Key] = a.Val
			}
		}
		line, err := json.Marshal(&rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// StageTable renders every histogram as one row of a stage-latency table:
// count, p50/p95/p99, max, mean — the per-stage breakdown the paper's
// evaluation argues from.
func (r *Registry) StageTable() *Table {
	t := NewTable("stage", "count", "p50", "p95", "p99", "max", "mean")
	if r == nil {
		return t
	}
	for _, name := range r.HistogramNames() {
		s := r.hists[name].Summarize()
		t.AddRow(name, fmt.Sprintf("%d", s.Count),
			fmtSeconds(s.P50), fmtSeconds(s.P95), fmtSeconds(s.P99),
			fmtSeconds(s.Max), fmtSeconds(s.Mean))
	}
	return t
}

// GaugeTable renders the gauges as a two-column table.
func (r *Registry) GaugeTable() *Table {
	t := NewTable("gauge", "value")
	if r == nil {
		return t
	}
	for _, name := range r.GaugeNames() {
		t.AddRow(name, fmtGauge(r.gauges[name]))
	}
	return t
}

// Report renders the stage-latency and gauge tables (the piece harnesses
// print next to the counters table). Empty sections are omitted.
func (r *Registry) Report() string {
	if r == nil {
		return ""
	}
	out := ""
	if len(r.hists) > 0 {
		out += "Stage latency (simulated time)\n" + r.StageTable().String()
	}
	if len(r.gauges) > 0 {
		if out != "" {
			out += "\n"
		}
		out += "Gauges\n" + r.GaugeTable().String()
	}
	return out
}

// fmtSeconds renders a duration as seconds with one decimal, matching the
// figure tables.
func fmtSeconds(d time.Duration) string { return fmt.Sprintf("%.1fs", d.Seconds()) }

// fmtGauge renders a gauge value, dropping the fraction when integral.
func fmtGauge(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
