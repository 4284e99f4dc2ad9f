// Package obs is the unified instrumentation layer shared by every
// analysis engine in this repository: named atomic counters, gauges and
// histograms collected in a Registry, a span tracer that records
// wall-clock and runtime.MemStats deltas per phase, and a Snapshot of
// both, exported as JSON or in the Prometheus text format. A run's live
// progress is one Counter the engine adds to and any observer samples.
//
// The paper's whole argument is quantitative — states explored, peak BDD
// nodes, runtimes — so the engines must be able to account for where they
// spend effort without perturbing what they explore. The design rules
// follow from that:
//
//   - No global state. A Registry is created by the caller and handed to
//     an engine through its Options (core.Options.Metrics and friends).
//   - Nil is a no-op everywhere. A nil *Registry yields nil *Counter /
//     *Gauge / *Histogram / *Span values whose methods return
//     immediately, so a disabled metric costs one predictable branch on
//     the hot path and zero allocations.
//   - Instrumentation only observes. Engines must never consult a metric
//     to make a decision, so enabling metrics cannot change the number of
//     states explored.
//
// Metric names are dot-separated and prefixed by the owning package
// ("core.states", "bdd.cache_hits"); OBSERVABILITY.md lists them all.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Create counters through
// Registry.Counter; a nil *Counter is valid and all its methods are
// no-ops. A zero Counter is also a run's live progress: the engine adds
// to it once per unit of work (Options.Progress) and any observer
// samples Value, so watching a run costs the engine one atomic add.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions or track a peak.
// Create gauges through Registry.Gauge; a nil *Gauge is valid and all its
// methods are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v is larger than the current value —
// the idiom for peak tracking (peak queue depth, peak node count).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Clock abstracts time.Now so span timing and snapshots are testable
// with a fake clock.
type Clock interface {
	Now() time.Time
}

// FakeClock is a manually advanced clock for tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock returns a fake clock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{t: start}
}

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the fake time forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Registry holds the metrics of one run, keyed by name. The zero value is
// not usable; construct with New. A nil *Registry is valid: every
// accessor returns a nil metric whose methods are no-ops, which is how
// engines run uninstrumented at full speed.
type Registry struct {
	clock Clock // nil = wall clock

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanRecord
}

// New returns an empty registry using the wall clock.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// NewWithClock returns an empty registry whose spans and snapshots read
// the given clock — used by tests to make time deterministic.
func NewWithClock(c Clock) *Registry {
	r := New()
	r.clock = c
	return r
}

func (r *Registry) now() time.Time {
	if r.clock != nil {
		return r.clock.Now()
	}
	return time.Now()
}

// Counter returns the counter registered under name, creating it on first
// use. Callers should hoist the lookup out of hot loops and hold the
// *Counter. Returns nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil (a valid no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil (a valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = newHistogram()
	r.hists[name] = h
	return h
}
