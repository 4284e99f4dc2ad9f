// Package zdd implements zero-suppressed binary decision diagrams (Minato)
// over the transition universe, as a compressed representation of the
// families of transition sets that make up Generalized Petri Net states.
//
// The explicit representation (internal/family) is linear in the number of
// member sets, which is exponential for nets like the paper's Figure 2 —
// 2^N maximal conflict-free sets. ZDDs keep such product-structured
// families polynomial, which is what lets the generalized analysis run in
// time linear in the problem size (paper Section 4: "CPU times increase
// linearly with problem size") while still exploring only a handful of
// states.
//
// Families handled by one Manager are canonical: equal families are the
// same node, so Equal and Key are O(1).
//
// A manager tests its elements in a fixed level order, the identity
// unless SetOrder names another before the first node is built. Levels
// are internal: every operation that takes or returns elements (Single,
// FromSets, OnSet, Contains, Enumerate, MaximalConflictFree and the
// family snapshot) maps through the order, so no result depends on it
// but the node count.
//
// The node arena and the unique table are internal/dd's. This package
// keeps the zero-suppression rule, the operators, a persistent Count
// memo of the nodes counted and the binary-op cache, which is lossy
// without that changing a node id, count or snapshot byte (DESIGN.md D7).
package zdd

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bdd"
	"repro/internal/dd"
	"repro/internal/petri"
	"repro/internal/tset"
)

// Node references a ZDD node of a Manager.
type Node = dd.Node

// Terminals: Bot is the empty family ∅; Top is {∅}, the family holding
// exactly the empty set.
const (
	Bot Node = 0
	Top Node = 1
)

// Table capacities, powers of two. The unique table doubles without
// bound. The op cache doubles from initMemoSlots to maxCacheSlots (1 MB)
// and stays there: on the benchmark's nine gpo classes no class is faster
// with a larger cache, and at 1<<12 asat(32) thrashes (EXPERIMENTS.md
// "GPO scaling").
const (
	initUniqueSlots = 1 << 10
	initMemoSlots   = 1 << 11
	maxCacheSlots   = 1 << 16
)

// cacheCap is maxCacheSlots, lowered only by tests that show a lost
// entry changes no node id.
var cacheCap = maxCacheSlots

// memoEntry is one slot of the op cache. key packs the operand pair as
// a<<32|b and val packs op<<32|result. key == 0 marks an empty slot: no
// cached operation has a == Bot (those return before the lookup), so 0
// is never a real key.
type memoEntry struct {
	key uint64
	val uint64
}

// Manager owns a ZDD forest over a fixed element universe {0,…,n-1}.
type Manager struct {
	n int

	// elem[l] is the element tested at level l and level[e] the level of
	// element e; both nil while the order is the identity.
	elem  []petri.Trans
	level []int32

	// nodes is the arena and unique table. An entry's Level is the
	// level tested (the universe size for the terminals), Lo the sets
	// without its element and Hi the sets with it.
	nodes dd.Table

	// memo is the direct-mapped binary-op cache; memoRoom counts the
	// stores left before it doubles, while it is below the cap.
	memo     []memoEntry
	memoRoom int

	// count memoizes the member-set count below each node Count has
	// visited. Nodes are immutable and never freed, so entries stay valid
	// for the manager's lifetime. Count visits few of the nodes the
	// operators create (1 783 of 286 141 on nsdp(40)), so the memo is a
	// map of those rather than a slice as long as the arena.
	count map[Node]float64

	// Plain (non-atomic) operation statistics: the manager is
	// single-goroutine by design, and these must cost one increment on
	// the hot path.
	memoHits    int64
	memoMisses  int64
	countHits   int64
	countMisses int64

	// GrowHook, if non-nil, is called after each table doubling with the
	// table's name ("unique" or "memo") and its new slot count; "memo"
	// stops at maxCacheSlots. Growth is amortized-rare, so the hook is
	// off the hot path; it must not call back into the manager.
	GrowHook func(table string, slots int)
}

// Stats is a snapshot of the manager's internal counters: unique-table
// hits (node reuse) vs. misses (node creation), binary-op cache hits vs.
// misses, count-memo hits vs. misses, plus the table shapes.
// Nodes are never garbage-collected, so Nodes is also the peak and the
// lifetime allocation count.
type Stats struct {
	Nodes        int
	UniqueHits   int64
	UniqueMisses int64
	MemoHits     int64
	MemoMisses   int64
	CountHits    int64
	CountMisses  int64

	// UniqueSlots/MemoSlots are the current table capacities (MemoSlots
	// never exceeds maxCacheSlots); UniqueEntries is the unique table's
	// live entry count (its ratio to UniqueSlots is the load factor) and
	// UniqueProbes its probe steps beyond the home slot across all
	// lookups.
	UniqueSlots   int
	UniqueEntries int
	MemoSlots     int
	UniqueProbes  int64
}

// Stats returns the current operation statistics.
func (m *Manager) Stats() Stats {
	hits, misses, probes := m.nodes.Counts()
	return Stats{
		Nodes:         m.nodes.Len(),
		UniqueHits:    hits,
		UniqueMisses:  misses,
		MemoHits:      m.memoHits,
		MemoMisses:    m.memoMisses,
		CountHits:     m.countHits,
		CountMisses:   m.countMisses,
		UniqueSlots:   m.nodes.Slots(),
		UniqueEntries: m.nodes.Len() - 2,
		MemoSlots:     len(m.memo),
		UniqueProbes:  probes,
	}
}

// op tags for the binary memo table. OnSet encodes the element in the
// bits above opShift, so every (op, element) pair is a distinct tag.
const (
	opUnion uint32 = iota
	opIntersect
	opDiff
	opOnSet
	opShift = 2
)

// NewManager returns a manager over an n-element universe.
func NewManager(n int) *Manager {
	m := &Manager{
		n:     n,
		memo:  make([]memoEntry, min(initMemoSlots, cacheCap)),
		count: map[Node]float64{Bot: 0, Top: 1}, // Bot holds no sets, Top exactly {∅}
	}
	m.nodes.Init(n, initUniqueSlots)
	m.nodes.Grown = m.uniqueGrown
	m.memoRoom = len(m.memo)
	return m
}

// SetOrder makes order[l] the element tested at level l. It must be a
// permutation of the universe, set before the manager builds its first
// node; the manager keeps order, which the caller must not modify.
func (m *Manager) SetOrder(order []petri.Trans) {
	if len(order) != m.n || m.nodes.Len() > 2 {
		panic("zdd: SetOrder needs a full order on an empty manager")
	}
	level := make([]int32, m.n)
	for l := range level {
		level[l] = -1
	}
	for l, e := range order {
		if e < 0 || int(e) >= m.n || level[e] >= 0 {
			panic(fmt.Sprintf("zdd: order is not a permutation (element %d)", e))
		}
		level[e] = int32(l)
	}
	m.elem, m.level = order, level
}

// levelOf returns the level that tests element e.
func (m *Manager) levelOf(e int) int32 {
	if m.level == nil {
		return int32(e)
	}
	return m.level[e]
}

// elemAt returns the element tested at level l.
func (m *Manager) elemAt(l int32) int {
	if m.elem == nil {
		return int(l)
	}
	return int(m.elem[l])
}

// Size returns the number of allocated nodes.
func (m *Manager) Size() int { return m.nodes.Len() }

// mk returns the canonical node, applying the zero-suppression rule
// (hi = Bot ⇒ the node is redundant).
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if hi == Bot {
		return lo
	}
	return m.nodes.Intern(level, lo, hi)
}

// uniqueGrown forwards a unique-table doubling to GrowHook.
func (m *Manager) uniqueGrown(slots int) {
	if m.GrowHook != nil {
		m.GrowHook("unique", slots)
	}
}

// memoSlot returns the one slot an (op, a, b) entry can live in.
func (m *Manager) memoSlot(key, op uint64) *memoEntry {
	return &m.memo[dd.Mix64(key^op*0x9e3779b97f4a7c15)&uint64(len(m.memo)-1)]
}

// memoGet looks up a cached binary-op result; a false return means the
// op must be computed (and should be stored with memoPut).
func (m *Manager) memoGet(op uint32, a, b Node) (Node, bool) {
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	if e := m.memoSlot(key, uint64(op)); e.key == key && e.val>>32 == uint64(op) {
		m.memoHits++
		return Node(uint32(e.val)), true
	}
	m.memoMisses++
	return 0, false
}

// memoPut stores a computed binary-op result over whatever its slot
// held. Below the cap the cache doubles once it has taken as many
// stores as it has slots.
func (m *Manager) memoPut(op uint32, a, b, r Node) {
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	*m.memoSlot(key, uint64(op)) = memoEntry{key, uint64(op)<<32 | uint64(uint32(r))}
	if len(m.memo) < cacheCap {
		if m.memoRoom--; m.memoRoom == 0 {
			m.growMemo()
		}
	}
}

// growMemo doubles the cache. A slot's entries can only move to the same
// index or to index+len, so re-homing is one store per entry and loses
// nothing.
func (m *Manager) growMemo() {
	old := m.memo
	m.memo = make([]memoEntry, 2*len(old))
	m.memoRoom = len(m.memo)
	for _, e := range old {
		if e.key != 0 {
			*m.memoSlot(e.key, e.val>>32) = e
		}
	}
	if m.GrowHook != nil {
		m.GrowHook("memo", len(m.memo))
	}
}

// Single returns the family {s} holding exactly the given set.
func (m *Manager) Single(s tset.TSet) Node {
	if s.Universe() != m.n {
		panic("zdd: set universe mismatch")
	}
	levels := make([]int32, 0, s.Len())
	s.ForEach(func(e int) { levels = append(levels, m.levelOf(e)) })
	slices.Sort(levels)
	f := Top
	for i := len(levels) - 1; i >= 0; i-- {
		f = m.mk(levels[i], Bot, f)
	}
	return f
}

// FromSets returns the family holding exactly the given sets.
func (m *Manager) FromSets(sets []tset.TSet) Node {
	f := Bot
	for _, s := range sets {
		f = m.Union(f, m.Single(s))
	}
	return f
}

// Union returns a ∪ b.
func (m *Manager) Union(a, b Node) Node {
	if a == b || b == Bot {
		return a
	}
	if a == Bot {
		return b
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := m.memoGet(opUnion, a, b); ok {
		return r
	}
	na, nb := m.nodes.At(a), m.nodes.At(b)
	var r Node
	switch {
	case na.Level < nb.Level:
		r = m.mk(na.Level, m.Union(na.Lo, b), na.Hi)
	case na.Level > nb.Level:
		r = m.mk(nb.Level, m.Union(a, nb.Lo), nb.Hi)
	default:
		r = m.mk(na.Level, m.Union(na.Lo, nb.Lo), m.Union(na.Hi, nb.Hi))
	}
	m.memoPut(opUnion, a, b, r)
	return r
}

// Intersect returns a ∩ b.
func (m *Manager) Intersect(a, b Node) Node {
	if a == b {
		return a
	}
	if a == Bot || b == Bot {
		return Bot
	}
	if a > b {
		a, b = b, a
	}
	if r, ok := m.memoGet(opIntersect, a, b); ok {
		return r
	}
	na, nb := m.nodes.At(a), m.nodes.At(b)
	var r Node
	switch {
	case na.Level < nb.Level:
		r = m.Intersect(na.Lo, b)
	case na.Level > nb.Level:
		r = m.Intersect(a, nb.Lo)
	default:
		r = m.mk(na.Level, m.Intersect(na.Lo, nb.Lo), m.Intersect(na.Hi, nb.Hi))
	}
	m.memoPut(opIntersect, a, b, r)
	return r
}

// Diff returns a \ b.
func (m *Manager) Diff(a, b Node) Node {
	if a == Bot || a == b {
		return Bot
	}
	if b == Bot {
		return a
	}
	if r, ok := m.memoGet(opDiff, a, b); ok {
		return r
	}
	na, nb := m.nodes.At(a), m.nodes.At(b)
	var r Node
	switch {
	case na.Level < nb.Level:
		r = m.mk(na.Level, m.Diff(na.Lo, b), na.Hi)
	case na.Level > nb.Level:
		r = m.Diff(a, nb.Lo)
	default:
		r = m.mk(na.Level, m.Diff(na.Lo, nb.Lo), m.Diff(na.Hi, nb.Hi))
	}
	m.memoPut(opDiff, a, b, r)
	return r
}

// OnSet returns {s ∈ a | v ∈ s}: the member sets containing element v,
// with v still present in them.
func (m *Manager) OnSet(a Node, v int) Node {
	return m.onSet(a, m.levelOf(v))
}

// onSet is OnSet with the element given by its level.
func (m *Manager) onSet(a Node, l int32) Node {
	na := m.nodes.At(a)
	switch {
	case na.Level > l: // l below every tested level: absent from all
		return Bot
	case na.Level == l:
		return m.mk(na.Level, Bot, na.Hi)
	}
	// The op cache tags the entry with the level; without it the
	// recursion revisits shared nodes once per path, which is exponential.
	op := opOnSet + uint32(l)<<opShift
	if r, ok := m.memoGet(op, a, 0); ok {
		return r
	}
	r := m.mk(na.Level, m.onSet(na.Lo, l), m.onSet(na.Hi, l))
	m.memoPut(op, a, 0, r)
	return r
}

// Contains reports whether set s is a member of family a.
// The path s selects must test every member: one it skips is absent
// from the sets below.
func (m *Manager) Contains(a Node, s tset.TSet) bool {
	tested := 0
	for a > Top {
		na := m.nodes.At(a)
		if s.Has(m.elemAt(na.Level)) {
			a = na.Hi
			tested++
		} else {
			a = na.Lo
		}
	}
	return a == Top && tested == s.Len()
}

// Count returns the number of member sets. The memo is per-node and
// persistent (nodes are canonical, immutable and never freed), so
// repeated counts — the engine counts r once per interned state — are
// allocation-free map lookups.
func (m *Manager) Count(a Node) float64 {
	if c, ok := m.count[a]; ok {
		m.countHits++
		return c
	}
	return m.countSlow(a)
}

func (m *Manager) countSlow(a Node) float64 {
	if c, ok := m.count[a]; ok {
		return c
	}
	m.countMisses++
	c := m.countSlow(m.nodes.At(a).Lo) + m.countSlow(m.nodes.At(a).Hi)
	m.count[a] = c
	return c
}

// Enumerate returns up to limit member sets (all if limit <= 0), sorted
// by tset.Compare. A limit keeps the first sets in element order, the
// ones containing the smallest element first (tset.Precedes): the sets a
// depth-first walk of the identity order meets first, whatever the
// manager's level order.
func (m *Manager) Enumerate(a Node, limit int) []tset.TSet {
	var out []tset.TSet
	if limit > 0 {
		out = m.first(a, limit, map[Node][]tset.TSet{})
	} else {
		m.all(a, tset.New(m.n), &out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// all appends every member set of a, each joined with cur, to out.
func (m *Manager) all(a Node, cur tset.TSet, out *[]tset.TSet) {
	switch a {
	case Bot:
	case Top:
		*out = append(*out, cur.Clone())
	default:
		na := m.nodes.At(a)
		e := m.elemAt(na.Level)
		cur.Add(e)
		m.all(na.Hi, cur, out)
		cur.Remove(e)
		m.all(na.Lo, cur, out)
	}
}

// first returns the k first member sets of a in tset.Precedes order,
// memoized per node. A node's sets with its element and those without
// are each such a list already, so its own is their k-way merge.
func (m *Manager) first(a Node, k int, memo map[Node][]tset.TSet) []tset.TSet {
	switch a {
	case Bot:
		return nil
	case Top:
		return []tset.TSet{tset.New(m.n)}
	}
	if r, ok := memo[a]; ok {
		return r
	}
	na := m.nodes.At(a)
	e := m.elemAt(na.Level)
	lo := m.first(na.Lo, k, memo)
	var hi []tset.TSet
	for _, s := range m.first(na.Hi, k, memo) {
		s = s.Clone()
		s.Add(e)
		hi = append(hi, s)
	}
	r := make([]tset.TSet, 0, min(k, len(lo)+len(hi)))
	for len(r) < cap(r) {
		if len(lo) == 0 || len(hi) > 0 && hi[0].Precedes(lo[0]) {
			r, hi = append(r, hi[0]), hi[1:]
		} else {
			r, lo = append(r, lo[0]), lo[1:]
		}
	}
	memo[a] = r
	return r
}

// NodeCount returns the number of distinct internal nodes reachable from a.
func (m *Manager) NodeCount(a Node) int {
	m.nodes.Walk()
	return m.mark(a)
}

// mark visits every node below a that the current walk has not seen and
// returns how many there were.
func (m *Manager) mark(a Node) int {
	if m.nodes.Visit(a) {
		return 0
	}
	return 1 + m.mark(m.nodes.At(a).Lo) + m.mark(m.nodes.At(a).Hi)
}

// fromBDDModels converts the model set of a BDD predicate whose
// variable l is this manager's level l into the ZDD family of its
// satisfying assignments (each model read as the set of variables
// assigned true). Don't-care variables are expanded into both membership
// outcomes.
func (m *Manager) fromBDDModels(bm *bdd.Manager, f bdd.Node) Node {
	// memo[f] is the family of f's models over the variables from f's own
	// level down, by BDD node id; Bot means not built yet, which no
	// satisfiable f converts to.
	memo := make([]Node, bm.Size())
	var rec func(f bdd.Node, level int) Node
	rec = func(f bdd.Node, level int) Node {
		if f == bdd.False {
			return Bot
		}
		own := bm.Level(f) // m.n for True
		r := Top
		if f != bdd.True {
			if r = memo[f]; r == Bot {
				r = m.mk(int32(own), rec(bm.Low(f), own+1), rec(bm.High(f), own+1))
				memo[f] = r
			}
		}
		// Variables f skips between level and its own are don't-cares:
		// both outcomes. On a revisit these are unique-table hits.
		for l := own - 1; l >= level; l-- {
			r = m.mk(int32(l), r, r)
		}
		return r
	}
	return rec(f, 0)
}

// MaximalConflictFree returns the family of maximal independent sets of
// the conflict graph given by the adjacency predicate: a set S is maximal
// independent iff it contains no edge and every vertex outside S has a
// neighbour inside S. The predicate is built as a BDD with one variable
// per level (a conjunction of local constraints, compact for the
// locally-structured conflict graphs of real nets) and its models are
// extracted as a ZDD.
func (m *Manager) MaximalConflictFree(conflict func(i, j int) bool) Node {
	bm := bdd.NewManager(m.n)
	onLevels := func(i, j int) bool { return conflict(m.elemAt(int32(i)), m.elemAt(int32(j))) }
	return m.fromBDDModels(bm, conflictFreeBDD(bm, onLevels))
}

// conflictFreeBDD conjoins the maximal-independent-set clauses over bm's
// variables, from the last variable to the first. Conflicts are mostly
// between neighbouring variables, so in that order each clause meets only
// the top few levels of the accumulated conjunction; first to last, every
// And walked the whole prefix to reach the levels it constrains, which is
// quadratic on a ring like NSDP's forks.
func conflictFreeBDD(bm *bdd.Manager, conflict func(i, j int) bool) bdd.Node {
	n := bm.NumVars()
	f := bdd.True
	for i := n - 1; i >= 0; i-- {
		// Independence: ¬(x_i ∧ x_j) for each edge (i,j), i < j.
		for j := i + 1; j < n; j++ {
			if conflict(i, j) {
				f = bm.And(f, bm.Not(bm.And(bm.Var(i), bm.Var(j))))
			}
		}
		// Maximality (domination): x_i ∨ ∨_{j ~ i} x_j.
		cl := bm.Var(i)
		for j := 0; j < n; j++ {
			if j != i && conflict(i, j) {
				cl = bm.Or(cl, bm.Var(j))
			}
		}
		f = bm.And(f, cl)
	}
	return f
}
