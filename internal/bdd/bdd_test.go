package bdd

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTerminals(t *testing.T) {
	m := NewManager(4)
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("negation of terminals")
	}
	if m.And(True, False) != False || m.Or(True, False) != True {
		t.Fatal("binary ops on terminals")
	}
}

func TestCanonicity(t *testing.T) {
	m := NewManager(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a ∧ b) ∨ c built two different ways must be the same node.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Not(m.And(m.Not(m.And(a, b)), m.Not(c)))
	if f1 != f2 {
		t.Errorf("equivalent functions got different nodes: %d vs %d", f1, f2)
	}
}

func TestVarNVar(t *testing.T) {
	m := NewManager(2)
	if m.And(m.Var(0), m.NVar(0)) != False {
		t.Error("x ∧ ¬x must be False")
	}
	if m.Or(m.Var(0), m.NVar(0)) != True {
		t.Error("x ∨ ¬x must be True")
	}
}

// TestAgainstTruthTable exhaustively compares BDD evaluation with direct
// boolean evaluation for randomly constructed formulas over 6 variables.
func TestAgainstTruthTable(t *testing.T) {
	const nv = 6
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := NewManager(nv)
		// Build a random formula tree and in parallel an evaluator.
		var build func(depth int) (Node, func([]bool) bool)
		build = func(depth int) (Node, func([]bool) bool) {
			if depth == 0 || rng.Intn(4) == 0 {
				v := rng.Intn(nv)
				if rng.Intn(2) == 0 {
					return m.Var(v), func(a []bool) bool { return a[v] }
				}
				return m.NVar(v), func(a []bool) bool { return !a[v] }
			}
			l, fl := build(depth - 1)
			r, fr := build(depth - 1)
			switch rng.Intn(4) {
			case 0:
				return m.And(l, r), func(a []bool) bool { return fl(a) && fr(a) }
			case 1:
				return m.Or(l, r), func(a []bool) bool { return fl(a) || fr(a) }
			case 2:
				return m.Xor(l, r), func(a []bool) bool { return fl(a) != fr(a) }
			default:
				return m.Implies(l, r), func(a []bool) bool { return !fl(a) || fr(a) }
			}
		}
		f, eval := build(4)
		count := 0.0
		assign := make([]bool, nv)
		for bits := 0; bits < 1<<nv; bits++ {
			for v := 0; v < nv; v++ {
				assign[v] = bits&(1<<v) != 0
			}
			want := eval(assign)
			if got := m.Eval(f, assign); got != want {
				t.Fatalf("trial %d: Eval mismatch at %v: got %v want %v", trial, assign, got, want)
			}
			if want {
				count++
			}
		}
		if got := m.SatCount(f); got != count {
			t.Errorf("trial %d: SatCount=%v want %v", trial, got, count)
		}
		if assignment, ok := m.AnySat(f); ok {
			if !m.Eval(f, assignment) {
				t.Errorf("trial %d: AnySat returned a non-model", trial)
			}
		} else if count != 0 {
			t.Errorf("trial %d: AnySat found nothing but SatCount=%v", trial, count)
		}
	}
}

func TestExists(t *testing.T) {
	m := NewManager(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b)
	vars := m.VarSet([]bool{true, false, false})
	// ∃a. a∧b = b
	if got := m.Exists(f, vars); got != b {
		t.Errorf("∃a.(a∧b) != b")
	}
	// ∃a. a = True
	if got := m.Exists(a, vars); got != True {
		t.Errorf("∃a.a != True")
	}
}

// randCNF returns a random conjunction of three-literal clauses over all
// of m's variables.
func randCNF(m *Manager, rng *rand.Rand, clauses int) Node {
	f := True
	for i := 0; i < clauses; i++ {
		cl := False
		for j := 0; j < 3; j++ {
			if v := rng.Intn(m.NumVars()); rng.Intn(2) == 0 {
				cl = m.Or(cl, m.Var(v))
			} else {
				cl = m.Or(cl, m.NVar(v))
			}
		}
		f = m.And(f, cl)
	}
	return f
}

// TestAndExistsMatchesComposition checks the relational product against
// And followed by Exists on random formulas.
func TestAndExistsMatchesComposition(t *testing.T) {
	const nv = 8
	rng := rand.New(rand.NewSource(7))
	m := NewManager(nv)
	randForm := func() Node { return randCNF(m, rng, 5) }
	for trial := 0; trial < 30; trial++ {
		f, g := randForm(), randForm()
		vars := make([]bool, nv)
		for v := range vars {
			vars[v] = rng.Intn(2) == 0
		}
		s := m.VarSet(vars)
		want := m.Exists(m.And(f, g), s)
		got := m.AndExists(f, g, s)
		if got != want {
			t.Fatalf("trial %d: AndExists != Exists∘And", trial)
		}
	}
}

func TestRename(t *testing.T) {
	m := NewManager(4)
	// f = x0 ∧ ¬x1, rename 0→2, 1→3.
	f := m.And(m.Var(0), m.NVar(1))
	g := m.Rename(f, m.Renaming([]int{2, 3, 2, 3}))
	want := m.And(m.Var(2), m.NVar(3))
	if g != want {
		t.Error("rename mismatch")
	}
}

// TestSatCountProperty checks |f ∨ g| + |f ∧ g| = |f| + |g| on random
// inputs via testing/quick.
func TestSatCountProperty(t *testing.T) {
	const nv = 10
	m := NewManager(nv)
	mk := func(seed int64) Node { return randCNF(m, rand.New(rand.NewSource(seed)), 4) }
	prop := func(s1, s2 int64) bool {
		f, g := mk(s1), mk(s2)
		return m.SatCount(m.Or(f, g))+m.SatCount(m.And(f, g)) ==
			m.SatCount(f)+m.SatCount(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSupport(t *testing.T) {
	m := NewManager(5)
	f := m.And(m.Var(1), m.Or(m.Var(3), m.NVar(4)))
	sup := m.Support(f)
	want := []bool{false, true, false, true, true}
	for v := range want {
		if sup[v] != want[v] {
			t.Errorf("support[%d]=%v want %v", v, sup[v], want[v])
		}
	}
}

func TestPeakGrows(t *testing.T) {
	m := NewManager(16)
	f := True
	for v := 0; v < 16; v += 2 {
		f = m.And(f, m.Xor(m.Var(v), m.Var(v+1)))
	}
	if m.Size() < 16 {
		t.Errorf("peak %d suspiciously small", m.Size())
	}
	if m.NodeCount(f) == 0 {
		t.Error("node count of non-terminal is zero")
	}
}

// truthTable evaluates f on every assignment of the manager's variables.
func truthTable(m *Manager, f Node) []bool {
	nv := m.NumVars()
	tt := make([]bool, 1<<nv)
	assign := make([]bool, nv)
	for bits := range tt {
		for v := range assign {
			assign[v] = bits&(1<<v) != 0
		}
		tt[bits] = m.Eval(f, assign)
	}
	return tt
}

// TestQuantifyRenameInterleaved alternates two quantification sets and
// two renamings on the same operands through one manager and checks
// every answer against the truth table: a computed-cache key that left
// out the set or the map would hand one's result to the other.
func TestQuantifyRenameInterleaved(t *testing.T) {
	const nv = 8
	rng := rand.New(rand.NewSource(11))
	m := NewManager(nv)
	randForm := func() Node { return randCNF(m, rng, 4) }
	// Two sets over the even variables, two shifts of the odd ones.
	setVars := [2][]bool{
		{true, false, true, false, false, false, false, false},
		{false, false, false, false, true, false, true, false},
	}
	perms := [2][]int{
		{0, 0, 2, 2, 4, 4, 6, 6}, // odd v → v-1
		{0, 1, 2, 1, 4, 3, 6, 5}, // odd v → v-2 (1 stays)
	}
	sets := [2]VarSet{m.VarSet(setVars[0]), m.VarSet(setVars[1])}
	maps := [2]Renaming{m.Renaming(perms[0]), m.Renaming(perms[1])}
	even := make([]bool, nv)
	for v := 0; v < nv; v += 2 {
		even[v] = true
	}
	evens := m.VarSet(even)

	// quantified reports ∃vars.tt at the given assignment.
	quantified := func(tt []bool, vars []bool, bits int) bool {
		var free []int
		for v, q := range vars {
			if q {
				free = append(free, v)
				bits &^= 1 << v
			}
		}
		for sub := 0; sub < 1<<len(free); sub++ {
			b := bits
			for i, v := range free {
				if sub&(1<<i) != 0 {
					b |= 1 << v
				}
			}
			if tt[b] {
				return true
			}
		}
		return false
	}
	for trial := 0; trial < 20; trial++ {
		f, g := randForm(), randForm()
		ttF, ttFG := truthTable(m, f), truthTable(m, m.And(f, g))
		odd := m.Exists(f, evens) // support on odd variables: both maps are injective on it
		ttOdd := truthTable(m, odd)
		for round := 0; round < 2; round++ { // second round: answered from the cache
			for k := 0; k < 2; k++ {
				ex, ae, rn := truthTable(m, m.Exists(f, sets[k])), truthTable(m, m.AndExists(f, g, sets[k])), truthTable(m, m.Rename(odd, maps[k]))
				for bits := 0; bits < 1<<nv; bits++ {
					if want := quantified(ttF, setVars[k], bits); ex[bits] != want {
						t.Fatalf("trial %d set %d: Exists wrong at %08b", trial, k, bits)
					}
					if want := quantified(ttFG, setVars[k], bits); ae[bits] != want {
						t.Fatalf("trial %d set %d: AndExists wrong at %08b", trial, k, bits)
					}
					// Rename(odd, p)(x) = odd(y) with y[v] = x[p[v]] for odd v.
					src := 0
					for v := 1; v < nv; v += 2 {
						if bits&(1<<perms[k][v]) != 0 {
							src |= 1 << v
						}
					}
					if rn[bits] != ttOdd[src] {
						t.Fatalf("trial %d map %d: Rename wrong at %08b", trial, k, bits)
					}
				}
			}
		}
	}
}

// TestRegisteredOperandsAreCopies mutates the caller's slices after
// registering them: the registered set and map, and the cached results
// keyed on them, must not follow.
func TestRegisteredOperandsAreCopies(t *testing.T) {
	m := NewManager(4)
	vars := []bool{true, false, false, false}
	perm := []int{0, 0, 2, 2}
	s, p := m.VarSet(vars), m.Renaming(perm)
	f := m.And(m.Var(0), m.Var(1))
	if m.Exists(f, s) != m.Var(1) || m.Rename(m.Var(1), p) != m.Var(0) {
		t.Fatal("wrong before the mutation")
	}
	vars[0], vars[1] = false, true
	perm[1] = 2
	if m.Exists(f, s) != m.Var(1) || m.Rename(m.Var(1), p) != m.Var(0) {
		t.Error("a registered operand changed with the caller's slice")
	}
	if s2, p2 := m.VarSet(vars), m.Renaming(perm); s2 == s || p2 == p {
		t.Error("different content registered under an existing name")
	}
	if m.VarSet([]bool{true, false, false, false}) != s || m.Renaming([]int{0, 0, 2, 2}) != p {
		t.Error("equal content registered under a new name")
	}
	if m.Exists(f, m.VarSet(vars)) != m.Var(0) {
		t.Error("the second set was answered with the first one's result")
	}
}

// TestGrowthInsideAndExists pads the arena to just below the unique
// table's doubling point, so that the table doubles and the arena moves
// in the middle of one deep relational product, and checks the result
// against Exists∘And in an unpadded manager: a pointer into the arena
// held across a mk would read a stale node.
func TestGrowthInsideAndExists(t *testing.T) {
	const nv = 16
	build := func(m *Manager) (f, g Node, s VarSet) {
		f, g = True, True
		for v := 0; v < nv/2; v++ {
			f = m.And(f, m.Or(m.Var(2*v), m.Var(2*v+1)))
			g = m.And(g, m.Or(m.NVar(v), m.Var(v+nv/2)))
		}
		vars := make([]bool, nv)
		for v := 0; v < nv; v += 3 {
			vars[v] = true
		}
		return f, g, m.VarSet(vars)
	}
	m := NewManager(nv)
	f, g, s := build(m)
	// x₀ ∧ k for existing nodes k below level 0: one new node each, until
	// the unique table is a few nodes short of its 3/4-load doubling.
	room := func() int { return m.nodes.Slots()/4*3 + 2 - m.nodes.Len() }
	for k := Node(2); room() > 10; k++ {
		if int(k) >= m.nodes.Len() {
			t.Fatalf("ran out of padding with room for %d nodes left", room())
		}
		if m.Level(k) > 0 {
			m.mk(0, False, k)
		}
	}
	slots, nodes := m.nodes.Slots(), m.nodes.Len()
	got := m.AndExists(f, g, s)
	if m.nodes.Slots() == slots {
		t.Fatalf("AndExists created %d nodes and the unique table stayed at %d slots; the test needs a doubling",
			m.nodes.Len()-nodes, slots)
	}
	ref := NewManager(nv)
	rf, rg, rs := build(ref)
	want := ref.Exists(ref.And(rf, rg), rs)
	if !slices.Equal(truthTable(m, got), truthTable(ref, want)) {
		t.Fatal("AndExists across a table doubling differs from Exists∘And")
	}
	if m.NodeCount(got) != ref.NodeCount(want) {
		t.Fatalf("AndExists across a table doubling: %d nodes, want %d", m.NodeCount(got), ref.NodeCount(want))
	}
}

// TestWalksAcrossGrowth interleaves the whole-DAG walks with arena growth
// and with each other: the stamps of one walk must not leak into the next.
func TestWalksAcrossGrowth(t *testing.T) {
	const nv = 16
	m := NewManager(nv)
	f := True
	for v := 0; v+1 < nv; v += 2 {
		f = m.And(f, m.Xor(m.Var(v), m.Var(v+1)))
		pairs := v/2 + 1
		if got, want := m.SatCount(f), float64(uint64(1)<<(nv-pairs)); got != want {
			t.Fatalf("%d pairs: SatCount %v, want %v", pairs, got, want)
		}
		if got, want := m.NodeCount(f), 3*pairs; got != want {
			t.Fatalf("%d pairs: NodeCount %d, want %d", pairs, got, want)
		}
		sup := m.Support(f)
		for u := range sup {
			if sup[u] != (u <= v+1) {
				t.Fatalf("%d pairs: support[%d] = %v", pairs, u, sup[u])
			}
		}
		// Grow the arena between walks.
		for i := 0; i < 300; i++ {
			m.Xor(f, m.Var((v+i)%nv))
		}
	}
}
