package zdd

import (
	"encoding/binary"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/tset"
)

// Alg adapts a ZDD Manager to the algebra interface consumed by the
// analysis engine (internal/core.Algebra). All families produced by one
// Alg live in its manager; mixing managers is a programming error.
type Alg struct {
	m *Manager
}

// NewAlgebra returns a ZDD family algebra over an n-transition universe,
// its levels in transition order until SetOrder names another.
func NewAlgebra(n int) *Alg { return &Alg{m: NewManager(n)} }

// SetOrder makes order[l] the transition tested at level l (the core
// engine's Orderer hook); see Manager.SetOrder.
func (a *Alg) SetOrder(order []petri.Trans) { a.m.SetOrder(order) }

// Manager exposes the underlying ZDD manager (for statistics).
func (a *Alg) Manager() *Manager { return a.m }

// Universe returns the transition universe size.
func (a *Alg) Universe() int { return a.m.n }

// Empty returns the family with no member sets.
func (a *Alg) Empty() Node { return Bot }

// FromSets returns the family holding exactly the given sets.
func (a *Alg) FromSets(sets []tset.TSet) Node { return a.m.FromSets(sets) }

// Union returns x ∪ y.
func (a *Alg) Union(x, y Node) Node { return a.m.Union(x, y) }

// Intersect returns x ∩ y.
func (a *Alg) Intersect(x, y Node) Node { return a.m.Intersect(x, y) }

// Diff returns x \ y.
func (a *Alg) Diff(x, y Node) Node { return a.m.Diff(x, y) }

// OnSet returns {v ∈ x | t ∈ v}.
func (a *Alg) OnSet(x Node, t int) Node { return a.m.OnSet(x, t) }

// IsEmpty reports whether x has no member sets.
func (a *Alg) IsEmpty(x Node) bool { return x == Bot }

// Equal reports whether x and y are the same family.
func (a *Alg) Equal(x, y Node) bool { return x == y }

// Contains reports whether s is a member set of x.
func (a *Alg) Contains(x Node, s tset.TSet) bool { return a.m.Contains(x, s) }

// Count returns the number of member sets.
func (a *Alg) Count(x Node) float64 { return a.m.Count(x) }

// AppendKey appends the fixed-width binary key of x to dst: 4 bytes per
// family, unique per manager because families are canonical nodes.
func (a *Alg) AppendKey(dst []byte, x Node) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(x))
}

// Enumerate returns up to limit member sets (all if limit <= 0).
func (a *Alg) Enumerate(x Node, limit int) []tset.TSet { return a.m.Enumerate(x, limit) }

// MaximalConflictFree returns the initial valid sets r₀.
func (a *Alg) MaximalConflictFree(conflict func(i, j int) bool) Node {
	return a.m.MaximalConflictFree(conflict)
}

// Nodes returns the manager's node count (the core engine's NodeCounter
// hook): nodes are never freed, so a difference is what a call created.
func (a *Alg) Nodes() int { return a.m.Size() }

// ReportStats exports the manager's cache statistics under the "zdd."
// prefix (the core engine's StatsReporter hook). Gauges, not counters, so
// a repeated call overwrites rather than double-counts.
//
// Beyond the hit/miss pairs, the tables export their shapes: *_slots
// (capacity; memo_slots stops at the cache cap) and, for the
// open-addressed unique table, unique_entries (live entries),
// unique_probes (accumulated probe steps past the home slot; mean excess
// probe length is probes/(hits+misses)) and unique_load_pct
// (100·entries/slots).
func (a *Alg) ReportStats(r *obs.Registry) {
	st := a.m.Stats()
	r.Gauge("zdd.peak_nodes").Set(int64(st.Nodes)) // nodes are never freed
	r.Gauge("zdd.unique_hits").Set(st.UniqueHits)
	r.Gauge("zdd.unique_misses").Set(st.UniqueMisses)
	r.Gauge("zdd.memo_hits").Set(st.MemoHits)
	r.Gauge("zdd.memo_misses").Set(st.MemoMisses)
	r.Gauge("zdd.count_hits").Set(st.CountHits)
	r.Gauge("zdd.count_misses").Set(st.CountMisses)
	r.Gauge("zdd.unique_slots").Set(int64(st.UniqueSlots))
	r.Gauge("zdd.unique_entries").Set(int64(st.UniqueEntries))
	r.Gauge("zdd.unique_probes").Set(st.UniqueProbes)
	r.Gauge("zdd.memo_slots").Set(int64(st.MemoSlots))
	if st.UniqueSlots > 0 {
		r.Gauge("zdd.unique_load_pct").Set(int64(100 * st.UniqueEntries / st.UniqueSlots))
	}
}

// AttachTrace streams the manager's table doublings onto the given
// flight-recorder track as zdd_grow events (the core engine's
// TraceAttacher hook). Growth is amortized-rare, so interning the table
// name per event stays off the hot path.
func (a *Alg) AttachTrace(tr *trace.Tracer, tk *trace.Track) {
	a.m.GrowHook = func(table string, slots int) {
		tk.ZDDGrow(tr.Intern(table), int64(slots))
	}
}

// DetachTrace removes the hook installed by AttachTrace; the core
// engine detaches on every Analyze exit path so the hook never outlives
// its tracer.
func (a *Alg) DetachTrace() { a.m.GrowHook = nil }
