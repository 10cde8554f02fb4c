package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters is a set of named monotonic event counters. The chaos tooling
// uses one shared set per universe to surface fault-injection and recovery
// events (message drops, duplicates, relayer retries, recoveries, timed-out
// moves) next to the throughput/latency metrics.
//
// A mutex guards the map and every cell is atomic. Nothing on the
// discrete-event path needs that: every event, and with it every increment,
// runs on the one goroutine that drives the scheduler. The synchronisation
// stays for Realtime universes, whose events run on the driver's goroutine
// while the harness that owns the set may read it (Universe.Counters,
// Snapshot) from its own. Addition commutes, so final values do not depend
// on increment order.
type Counters struct {
	mu   sync.Mutex
	vals map[string]*cell
}

// cell is one counter. It is listed (Names, Snapshot, String) once it has
// been added to by name, even by zero, or holds a count; a cell that only a
// Handle has resolved stays out of every listing until its first event, so
// resolving handles up front cannot change what a run reports.
type cell struct {
	n     atomic.Uint64
	named bool
}

func (c *cell) listed() bool { return c.named || c.n.Load() > 0 }

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]*cell)}
}

// cell returns the named counter's cell, creating it if needed. Callers
// hold c.mu.
func (c *Counters) cell(name string) *cell {
	v := c.vals[name]
	if v == nil {
		v = new(cell)
		c.vals[name] = v
	}
	return v
}

// Handle is a counter resolved once, for call sites that fire per message:
// Inc and Add are a single atomic add — no lock, no name to build or hash;
// atomic for the reason Counters gives, not for concurrent incrementers, of
// which there are none. The zero Handle, which is also what a nil *Counters resolves to, counts
// nothing.
type Handle struct{ n *atomic.Uint64 }

// Handle resolves the named counter. Resolving alone does not list it.
func (c *Counters) Handle(name string) Handle {
	if c == nil {
		return Handle{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Handle{n: &c.cell(name).n}
}

// Inc adds one to the counter.
func (h Handle) Inc() { h.Add(1) }

// Add adds n to the counter.
func (h Handle) Add(n uint64) {
	if h.n != nil {
		h.n.Add(n)
	}
}

// Wait counts the times one call site blocked on another goroutine
// (<name>.blocks) and the wall nanoseconds it spent blocked (<name>.ns). The
// zero Wait, which is also what a nil *Counters resolves to, counts nothing
// and never reads the clock.
type Wait struct{ blocks, ns Handle }

// Wait resolves the pair of counters of a blocking site.
func (c *Counters) Wait(name string) Wait {
	return Wait{c.Handle(name + ".blocks"), c.Handle(name + ".ns")}
}

// Recv receives from ch. When w counts and the receive has to block, it
// counts the block and its wall time.
func Recv[T any](w Wait, ch <-chan T) T {
	if w.blocks.n == nil {
		return <-ch
	}
	select {
	case v := <-ch:
		return v
	default:
	}
	start := time.Now()
	v := <-ch
	w.blocked(start)
	return v
}

// Send sends v on ch, counting as Recv does.
func Send[T any](w Wait, ch chan<- T, v T) {
	if w.blocks.n == nil {
		ch <- v
		return
	}
	select {
	case ch <- v:
		return
	default:
	}
	start := time.Now()
	ch <- v
	w.blocked(start)
}

func (w Wait) blocked(start time.Time) {
	w.blocks.Inc()
	w.ns.Add(uint64(time.Since(start)))
}

// LoopWaitPrefix starts the name of every Wait that counts where an event
// loop blocks on another goroutine.
const LoopWaitPrefix = "loopwait."

// Process holds the counters of process-wide resources, which every
// universe in the process shares: the Waits of the shared crypto pool
// (loopwait.pool) and of encoding a transaction whose deferred signature
// has not landed (loopwait.sig.encode). A universe reports what they
// counted since it was built (universe.Counters).
var Process = NewCounters()

// ProcessCounter reports whether the named counter measures the process
// rather than the simulation: the shared sender cache's hits and misses
// (sendercache.*) and the wall time the event loop spent blocked
// (loopwait.*). Their values differ between runs of one seed, so every
// fingerprint leaves them out.
func ProcessCounter(name string) bool {
	return strings.HasPrefix(name, "sendercache.") || strings.HasPrefix(name, LoopWaitPrefix)
}

// Inc adds one to the named counter, creating it at zero first if needed.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add adds n to the named counter.
func (c *Counters) Add(name string, n uint64) {
	c.mu.Lock()
	v := c.cell(name)
	v.named = true
	c.mu.Unlock()
	v.n.Add(n)
}

// Get returns the named counter's value (zero if never incremented).
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.vals[name]; v != nil {
		return v.n.Load()
	}
	return 0
}

// Names returns every counter name in sorted order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.vals))
	for name, v := range c.vals {
		if v.listed() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.vals))
	for name, v := range c.vals {
		if v.listed() {
			out[name] = v.n.Load()
		}
	}
	return out
}

// Sum returns the total of every counter whose name starts with prefix
// (e.g. Sum("relay.") for all relayer events).
func (c *Counters) Sum(prefix string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	for name, v := range c.vals {
		if strings.HasPrefix(name, prefix) {
			sum += v.n.Load()
		}
	}
	return sum
}

// String renders the counters as an aligned two-column table.
func (c *Counters) String() string {
	t := NewTable("counter", "value")
	for _, name := range c.Names() {
		t.AddRow(name, fmt.Sprintf("%d", c.Get(name)))
	}
	return t.String()
}
