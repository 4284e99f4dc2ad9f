// Package bdd implements reduced ordered binary decision diagrams
// (Bryant 1986, the paper's reference [2]): hash-consed nodes, the ITE
// operator, set difference and the firing of a safe-net transition —
// everything the symbolic reachability engine of internal/symbolic (the
// paper's SMV stand-in, Section 2.4) needs, plus the model-set extraction
// used to build the generalized analysis' initial valid sets as ZDDs.
//
// Nodes are interned in a manager-wide unique table, so structural
// equality is pointer (id) equality, and the manager records its peak node
// count — the "Peak BDD-size" statistic of the paper's Table 1.
//
// The node arena and the unique table are internal/dd's. This package
// keeps the reduction rule, the operators and their computed cache, which
// is lossy without that changing a node id (DESIGN.md D7).
package bdd

import (
	"fmt"
	"math"

	"repro/internal/dd"
)

// Node is a BDD node reference. The constants False and True are the
// terminals; all other values index the manager's node arena.
type Node = dd.Node

// Terminal nodes.
const (
	False Node = 0
	True  Node = 1
)

// Trans names a transition registered with Manager.Transition: the
// operand of Fire.
type Trans int32

// Action is what firing a transition does to one variable of its support.
type Action uint8

const (
	Take Action = iota // the variable must be 1 and becomes 0 (pre-set only)
	Keep               // the variable must be 1 and stays 1 (pre- and post-set)
	Put                // the variable becomes 1, whatever it was (post-set only)
)

// Table capacities, powers of two. Both tables start small because most
// managers stay small: every GPO run builds one for r₀ and every reduced
// Table 1 net fits a few hundred nodes, so a large fixed table is paid in
// allocation and clearing by runs that never fill it (DESIGN.md D7). The
// unique table doubles without bound; the computed cache doubles up to
// maxCacheSlots and stays there (EXPERIMENTS.md "Symbolic kernel": the
// sweep on nsdp(8), over(5), rw(15)).
const (
	initUniqueSlots = 1 << 8
	initCacheSlots  = 1 << 8
	maxCacheSlots   = 1 << 17
)

// cacheCap is maxCacheSlots, lowered only by tests that show a lost
// entry changes no node id.
var cacheCap = maxCacheSlots

// Operator tags of the computed cache; 0 marks an empty slot.
const (
	opITE  uint32 = iota + 1 // (f, g, h)
	opAnd                    // (f, g, 0), f < g
	opFire                   // (f, Trans, support index)
)

// cacheEntry is one slot of the computed cache: an operator, its up to
// three operands and the result. A transition is an operand — a
// registered id whose support and actions cannot change — so a result
// computed in one image step answers the next, and one computed for a
// different transition is never mistaken for it.
type cacheEntry struct {
	op      uint32
	a, b, c int32
	r       Node
}

// Manager owns a BDD forest over a fixed number of ordered variables.
// Variable i is at level i: smaller levels are tested first.
type Manager struct {
	nvars int

	// nodes is the arena and unique table. An entry's Level is the
	// variable index (nvars for the terminals), Lo and Hi its cofactors.
	nodes dd.Table

	// cache is the direct-mapped computed cache; cacheRoom counts the
	// stores left before it doubles, while it is below the cap.
	cache     []cacheEntry
	cacheRoom int

	// Registered transitions: transition t's support levels, ascending,
	// are levels[start[t]:start[t+1]] and their actions acts[...].
	start  []int32
	levels []int32
	acts   []Action

	// sat[i] holds the model count of node i once the current SatCount
	// walk has visited it; allocated by the first SatCount and re-sized
	// by any later one that finds more nodes.
	sat []float64

	// Plain (non-atomic) operation statistics: the manager is
	// single-goroutine by design, and these must cost one increment on
	// the hot path.
	cacheHits   int64
	cacheMisses int64
}

// Stats is a snapshot of the manager's internal counters: unique-table
// hits (node reuse) vs. misses (node creation), computed-cache hits vs.
// misses over the three cached operators (ITE, And, Fire), and the
// computed cache's current capacity. Nodes are never garbage-collected,
// so Nodes is also the peak and the lifetime allocation count.
type Stats struct {
	Nodes        int
	UniqueHits   int64
	UniqueMisses int64
	CacheHits    int64
	CacheMisses  int64
	CacheSlots   int
}

// Stats returns the current operation statistics.
func (m *Manager) Stats() Stats {
	hits, misses, _ := m.nodes.Counts()
	return Stats{
		Nodes:        m.nodes.Len(),
		UniqueHits:   hits,
		UniqueMisses: misses,
		CacheHits:    m.cacheHits,
		CacheMisses:  m.cacheMisses,
		CacheSlots:   len(m.cache),
	}
}

// NewManager returns a manager over nvars ordered variables.
func NewManager(nvars int) *Manager {
	m := &Manager{
		nvars: nvars,
		cache: make([]cacheEntry, min(initCacheSlots, cacheCap)),
		start: []int32{0},
	}
	m.nodes.Init(nvars, initUniqueSlots)
	m.cacheRoom = len(m.cache)
	return m
}

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return m.nvars }

// Size returns the number of allocated nodes (terminals included).
func (m *Manager) Size() int { return m.nodes.Len() }

// Level returns the variable level tested by n (nvars for terminals).
func (m *Manager) Level(n Node) int { return int(m.nodes.At(n).Level) }

// Low and High return the cofactors of an internal node.
func (m *Manager) Low(n Node) Node  { return m.nodes.At(n).Lo }
func (m *Manager) High(n Node) Node { return m.nodes.At(n).Hi }

// mk returns the canonical node (level, low, high), applying the
// redundant-test reduction rule.
func (m *Manager) mk(level int32, low, high Node) Node {
	if low == high {
		return low
	}
	return m.nodes.Intern(level, low, high)
}

// cacheSlot returns the one slot an (op, a, b, c) entry can live in.
func (m *Manager) cacheSlot(op uint32, a, b, c int32) *cacheEntry {
	h := uint64(uint32(a))<<32 | uint64(uint32(b))
	h ^= (uint64(uint32(c))<<32 | uint64(op)) * 0x9e3779b97f4a7c15
	return &m.cache[dd.Mix64(h)&uint64(len(m.cache)-1)]
}

// cacheGet looks up a cached result; a false return means the operation
// must be computed (and should be stored with cachePut).
func (m *Manager) cacheGet(op uint32, a, b, c int32) (Node, bool) {
	if e := m.cacheSlot(op, a, b, c); e.op == op && e.a == a && e.b == b && e.c == c {
		m.cacheHits++
		return e.r, true
	}
	m.cacheMisses++
	return 0, false
}

// cachePut stores a computed result over whatever its slot held. Below
// the cap the cache doubles once it has taken as many stores as it has
// slots.
func (m *Manager) cachePut(op uint32, a, b, c int32, r Node) {
	*m.cacheSlot(op, a, b, c) = cacheEntry{op, a, b, c, r}
	if len(m.cache) < cacheCap {
		if m.cacheRoom--; m.cacheRoom == 0 {
			m.growCache()
		}
	}
}

// growCache doubles the cache. A slot's entry can only move to the same
// index or to index+len, so re-homing is one store per entry and loses
// nothing.
func (m *Manager) growCache() {
	old := m.cache
	m.cache = make([]cacheEntry, 2*len(old))
	m.cacheRoom = len(m.cache)
	for _, e := range old {
		if e.op != 0 {
			*m.cacheSlot(e.op, e.a, e.b, e.c) = e
		}
	}
}

// Var returns the function of variable v.
func (m *Manager) Var(v int) Node {
	if v < 0 || v >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.nvars))
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the negation of variable v.
func (m *Manager) NVar(v int) Node { return m.mk(int32(v), True, False) }

// ITE computes if-then-else(f, g, h), the universal binary operator.
func (m *Manager) ITE(f, g, h Node) Node {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if r, ok := m.cacheGet(opITE, int32(f), int32(g), int32(h)); ok {
		return r
	}
	top := m.nodes.At(f).Level
	if l := m.nodes.At(g).Level; l < top {
		top = l
	}
	if l := m.nodes.At(h).Level; l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, m.ITE(f0, g0, h0), m.ITE(f1, g1, h1))
	m.cachePut(opITE, int32(f), int32(g), int32(h), r)
	return r
}

func (m *Manager) cofactors(f Node, level int32) (lo, hi Node) {
	if nd := m.nodes.At(f); nd.Level == level {
		return nd.Lo, nd.Hi
	}
	return f, f
}

// And returns f ∧ g.
func (m *Manager) And(f, g Node) Node {
	if f > g {
		f, g = g, f
	}
	switch {
	case f == False:
		return False
	case f == True:
		return g
	case f == g:
		return f
	}
	if r, ok := m.cacheGet(opAnd, int32(f), int32(g), 0); ok {
		return r
	}
	top := min(m.nodes.At(f).Level, m.nodes.At(g).Level)
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	r := m.mk(top, m.And(f0, g0), m.And(f1, g1))
	m.cachePut(opAnd, int32(f), int32(g), 0, r)
	return r
}

// Or returns f ∨ g.
func (m *Manager) Or(f, g Node) Node { return m.ITE(f, True, g) }

// Not returns ¬f.
func (m *Manager) Not(f Node) Node { return m.ITE(f, False, True) }

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Node) Node { return m.ITE(f, m.Not(g), g) }

// Implies returns f → g.
func (m *Manager) Implies(f, g Node) Node { return m.ITE(f, g, True) }

// Diff returns f ∧ ¬g without building ¬g.
func (m *Manager) Diff(f, g Node) Node { return m.ITE(g, False, f) }

// Transition registers a safe-net transition over the variables vars,
// strictly ascending, where acts[i] is what firing it does to vars[i],
// and returns its name. The manager keeps a copy.
func (m *Manager) Transition(vars []int, acts []Action) Trans {
	if len(vars) != len(acts) {
		panic(fmt.Sprintf("bdd: transition with %d variables and %d actions", len(vars), len(acts)))
	}
	for i, v := range vars {
		if v < 0 || v >= m.nvars || i > 0 && v <= vars[i-1] {
			panic(fmt.Sprintf("bdd: transition support %v is not ascending in [0,%d)", vars, m.nvars))
		}
		m.levels = append(m.levels, int32(v))
	}
	m.acts = append(m.acts, acts...)
	m.start = append(m.start, int32(len(m.levels)))
	return Trans(len(m.start) - 2)
}

// Fire returns the image of f under transition t: every assignment that
// t's actions make of an assignment of f that enables t, the image step
// of symbolic reachability without a transition relation or next-state
// variables (Pastor, Cortadella and Roig 2001). The walk goes down to t's
// last support level only; below it the image is f itself.
func (m *Manager) Fire(f Node, t Trans) Node {
	return m.fire(f, t, m.start[t])
}

// fire applies t's actions from support index k on.
func (m *Manager) fire(f Node, t Trans, k int32) Node {
	if f == False || k == m.start[t+1] {
		return f
	}
	if r, ok := m.cacheGet(opFire, int32(f), int32(t), k); ok {
		return r
	}
	nd := m.nodes.At(f)
	var r Node
	if lvl := m.levels[k]; nd.Level < lvl {
		r = m.mk(nd.Level, m.fire(nd.Lo, t, k), m.fire(nd.Hi, t, k))
	} else {
		// A support variable f does not test is a don't-care: both
		// cofactors are f.
		lo, hi := m.cofactors(f, lvl)
		switch m.acts[k] {
		case Take:
			r = m.mk(lvl, m.fire(hi, t, k+1), False)
		case Keep:
			r = m.mk(lvl, False, m.fire(hi, t, k+1))
		default: // Put
			// The image of lo ∨ hi, built as the union of the two
			// images: fewer nodes than firing the union (DESIGN.md D7).
			r = m.mk(lvl, False, m.Or(m.fire(lo, t, k+1), m.fire(hi, t, k+1)))
		}
	}
	m.cachePut(opFire, int32(f), int32(t), k, r)
	return r
}

// SatCount returns the number of satisfying assignments of f over all
// variables of the manager.
func (m *Manager) SatCount(f Node) float64 {
	m.nodes.Walk()
	if len(m.sat) < m.nodes.Len() {
		m.sat = make([]float64, m.nodes.Len())
	}
	return m.satBelow(f) * math.Exp2(float64(m.nodes.At(f).Level))
}

// satBelow counts the models of f over the variables from f's level down.
func (m *Manager) satBelow(f Node) float64 {
	switch {
	case f == False:
		return 0
	case f == True:
		return 1
	case m.nodes.Visit(f):
		return m.sat[f]
	}
	nd := m.nodes.At(f)
	c := m.satBelow(nd.Lo)*math.Exp2(float64(m.nodes.At(nd.Lo).Level-nd.Level-1)) +
		m.satBelow(nd.Hi)*math.Exp2(float64(m.nodes.At(nd.Hi).Level-nd.Level-1))
	m.sat[f] = c
	return c
}

// AnySat returns one satisfying assignment of f (value per variable;
// unconstrained variables are reported false), or ok=false if f is False.
func (m *Manager) AnySat(f Node) (assign []bool, ok bool) {
	if f == False {
		return nil, false
	}
	assign = make([]bool, m.nvars)
	for f != True {
		n := m.nodes.At(f)
		if n.Lo != False {
			f = n.Lo
		} else {
			assign[n.Level] = true
			f = n.Hi
		}
	}
	return assign, true
}

// NodeCount returns the number of distinct nodes reachable from f
// (terminals excluded).
func (m *Manager) NodeCount(f Node) int {
	m.nodes.Walk()
	return m.countFrom(f)
}

func (m *Manager) countFrom(f Node) int {
	if m.nodes.Visit(f) {
		return 0
	}
	return 1 + m.countFrom(m.nodes.At(f).Lo) + m.countFrom(m.nodes.At(f).Hi)
}

// Support reports which variables f depends on.
func (m *Manager) Support(f Node) []bool {
	m.nodes.Walk()
	out := make([]bool, m.nvars)
	m.supportFrom(f, out)
	return out
}

func (m *Manager) supportFrom(f Node, out []bool) {
	if m.nodes.Visit(f) {
		return
	}
	out[m.nodes.At(f).Level] = true
	m.supportFrom(m.nodes.At(f).Lo, out)
	m.supportFrom(m.nodes.At(f).Hi, out)
}

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Node, assign []bool) bool {
	for f > True {
		n := m.nodes.At(f)
		if assign[n.Level] {
			f = n.Hi
		} else {
			f = n.Lo
		}
	}
	return f == True
}
