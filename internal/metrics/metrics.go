// Package metrics collects the measurements the paper's evaluation reports:
// throughput timelines (Fig. 5 right), aggregate transactions per second
// (Figs. 5 left and 6), and latency distributions with CDF extraction
// (Fig. 7). All timestamps are simulated-clock readings.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Timeline counts events in fixed-width simulated-time buckets.
type Timeline struct {
	bucket time.Duration
	counts map[int64]int
}

// NewTimeline returns a timeline with the given bucket width.
func NewTimeline(bucket time.Duration) *Timeline {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &Timeline{bucket: bucket, counts: make(map[int64]int)}
}

// Record adds n events at the given simulated time.
func (t *Timeline) Record(at time.Duration, n int) {
	t.counts[int64(at/t.bucket)] += n
}

// Point is one timeline sample: events per second over one bucket.
type Point struct {
	At  time.Duration
	TPS float64
}

// Series returns the bucketed rate over time, including empty buckets
// between the first and last events.
func (t *Timeline) Series() []Point {
	if len(t.counts) == 0 {
		return nil
	}
	var lo, hi int64
	first := true
	for b := range t.counts {
		if first {
			lo, hi = b, b
			first = false
			continue
		}
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	out := make([]Point, 0, hi-lo+1)
	perSec := t.bucket.Seconds()
	for b := lo; b <= hi; b++ {
		out = append(out, Point{
			At:  time.Duration(b) * t.bucket,
			TPS: float64(t.counts[b]) / perSec,
		})
	}
	return out
}

// Total returns the total event count.
func (t *Timeline) Total() int {
	sum := 0
	for _, n := range t.counts {
		sum += n
	}
	return sum
}

// Latencies records a latency sample set.
type Latencies struct {
	samples []time.Duration
	sorted  bool
}

// NewLatencies returns an empty recorder.
func NewLatencies() *Latencies { return &Latencies{} }

// Record adds one sample.
func (l *Latencies) Record(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Len returns the sample count.
func (l *Latencies) Len() int { return len(l.samples) }

func (l *Latencies) sort() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// Mean returns the mean latency.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// CDFPoint is one point of a cumulative distribution function.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns up to points evenly spaced CDF samples (Fig. 7's curves).
func (l *Latencies) CDF(points int) []CDFPoint {
	if len(l.samples) == 0 || points <= 0 {
		return nil
	}
	l.sort()
	if points > len(l.samples) {
		points = len(l.samples)
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := i*len(l.samples)/points - 1
		out = append(out, CDFPoint{
			Latency:  l.samples[idx],
			Fraction: float64(idx+1) / float64(len(l.samples)),
		})
	}
	return out
}

// FractionAbove returns the share of samples exceeding d.
func (l *Latencies) FractionAbove(d time.Duration) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	idx := sort.Search(len(l.samples), func(i int) bool { return l.samples[i] > d })
	return float64(len(l.samples)-idx) / float64(len(l.samples))
}

// Table renders an aligned text table (the harness' human-readable output).
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
