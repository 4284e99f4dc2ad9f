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

// TestFire fires one transition by hand: take x0, keep x1, put x3.
func TestFire(t *testing.T) {
	m := NewManager(4)
	tr := m.Transition([]int{0, 1, 3}, []Action{Take, Keep, Put})
	// x0 ∧ x1 ∧ (x2 ⊕ x3) ↦ ¬x0 ∧ x1 ∧ x3, whatever x2 was.
	f := m.And(m.And(m.Var(0), m.Var(1)), m.Xor(m.Var(2), m.Var(3)))
	if got, want := m.Fire(f, tr), m.And(m.And(m.NVar(0), m.Var(1)), m.Var(3)); got != want {
		t.Error("Fire(x0∧x1∧(x2⊕x3)) != ¬x0∧x1∧x3")
	}
	// Nothing in ¬x1 enables it.
	if got := m.Fire(m.NVar(1), tr); got != False {
		t.Error("Fire of a disabling set is not False")
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

// TestDiffMatchesComposition checks Diff against And of the complement
// on random formulas and on the terminal cases.
func TestDiffMatchesComposition(t *testing.T) {
	const nv = 8
	rng := rand.New(rand.NewSource(7))
	m := NewManager(nv)
	for trial := 0; trial < 30; trial++ {
		f, g := randCNF(m, rng, 5), randCNF(m, rng, 5)
		if m.Diff(f, g) != m.And(f, m.Not(g)) {
			t.Fatalf("trial %d: Diff != f∧¬g", trial)
		}
	}
	for _, f := range []Node{False, True, m.Var(3)} {
		for _, g := range []Node{False, True, m.Var(3), m.NVar(5)} {
			if m.Diff(f, g) != m.And(f, m.Not(g)) {
				t.Errorf("Diff(%d, %d) != f∧¬g", f, g)
			}
		}
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

// fireTable is Fire by enumeration: the truth table of the image of tt
// under the transition over vars with actions acts.
func fireTable(tt []bool, vars []int, acts []Action) []bool {
	img := make([]bool, len(tt))
	for bits, in := range tt {
		enabled := true
		next := bits
		for i, v := range vars {
			if acts[i] != Put && bits&(1<<v) == 0 {
				enabled = false
			}
			if acts[i] == Take {
				next &^= 1 << v
			} else {
				next |= 1 << v
			}
		}
		if in && enabled {
			img[next] = true
		}
	}
	return img
}

// randTransition draws a support of one to four ascending variables out
// of nv, with random actions.
func randTransition(rng *rand.Rand, nv int) ([]int, []Action) {
	vars := rng.Perm(nv)[:1+rng.Intn(4)]
	slices.Sort(vars)
	acts := make([]Action, len(vars))
	for i := range acts {
		acts[i] = Action(rng.Intn(3))
	}
	return vars, acts
}

// TestFireInterleaved alternates transitions on the same operands through
// one manager and checks every image against enumeration. Each pair
// shares its support and differs in one action, so a computed-cache key
// that left out the transition would hand one's image to the other.
func TestFireInterleaved(t *testing.T) {
	const nv = 8
	rng := rand.New(rand.NewSource(11))
	m := NewManager(nv)
	for trial := 0; trial < 20; trial++ {
		vars, acts := randTransition(rng, nv)
		twin := slices.Clone(acts)
		i := rng.Intn(len(twin))
		twin[i] = (twin[i] + 1) % 3
		ts := [2]Trans{m.Transition(vars, acts), m.Transition(vars, twin)}
		actions := [2][]Action{acts, twin}
		f := randCNF(m, rng, 4)
		tt := truthTable(m, f)
		for round := 0; round < 2; round++ { // second round: answered from the cache
			for k := 0; k < 2; k++ {
				if got := truthTable(m, m.Fire(f, ts[k])); !slices.Equal(got, fireTable(tt, vars, actions[k])) {
					t.Fatalf("trial %d transition %v %v: Fire wrong", trial, vars, actions[k])
				}
			}
		}
	}
}

// TestRegisteredOperandsAreCopies mutates the caller's slices after
// registering a transition: the registered transition, and the cached
// images keyed on it, must not follow.
func TestRegisteredOperandsAreCopies(t *testing.T) {
	m := NewManager(4)
	vars := []int{0, 1}
	acts := []Action{Take, Put}
	tr := m.Transition(vars, acts)
	want := m.And(m.NVar(0), m.Var(1))
	if m.Fire(m.Var(0), tr) != want {
		t.Fatal("wrong before the mutation")
	}
	vars[1], acts[0] = 2, Keep
	if m.Fire(m.Var(0), tr) != want || m.Fire(m.And(m.Var(0), m.NVar(2)), tr) != m.And(want, m.NVar(2)) {
		t.Error("a registered transition changed with the caller's slices")
	}
	if m.Fire(m.Var(0), m.Transition(vars, acts)) != m.And(m.Var(0), m.Var(2)) {
		t.Error("the second transition was answered with the first one's image")
	}
}

// TestGrowthInsideFire pads the arena to just below the unique table's
// doubling point, so that the table doubles in the middle of one deep
// image, and checks the image against an unpadded manager and against
// enumeration: a node read from before a mk that grew the table would
// be stale.
func TestGrowthInsideFire(t *testing.T) {
	const nv = 16
	vars := []int{1, 4, 7, 10, 13, 15}
	acts := []Action{Take, Put, Keep, Put, Take, Put}
	build := func(m *Manager) (f Node, tr Trans) {
		f = True
		for v := 0; v < nv/2; v++ {
			f = m.And(f, m.Or(m.Var(2*v), m.Var(2*v+1)))
			f = m.And(f, m.Or(m.NVar(v), m.Var(v+nv/2)))
		}
		return f, m.Transition(vars, acts)
	}
	m := NewManager(nv)
	f, tr := build(m)
	// x₀ ∧ k for existing nodes k below level 0: one new node each, until
	// the unique table is a few nodes short of its 3/4-load doubling.
	room := func() int { return m.nodes.Slots()/4*3 + 2 - m.nodes.Len() }
	for k := Node(2); room() > 3; k++ {
		if int(k) >= m.nodes.Len() {
			t.Fatalf("ran out of padding with room for %d nodes left", room())
		}
		if m.Level(k) > 0 {
			m.mk(0, False, k)
		}
	}
	slots, nodes := m.nodes.Slots(), m.nodes.Len()
	got := m.Fire(f, tr)
	if m.nodes.Slots() == slots {
		t.Fatalf("Fire created %d nodes and the unique table stayed at %d slots; the test needs a doubling",
			m.nodes.Len()-nodes, slots)
	}
	ref := NewManager(nv)
	rf, rt := build(ref)
	want := ref.Fire(rf, rt)
	if !slices.Equal(truthTable(m, got), truthTable(ref, want)) {
		t.Fatal("Fire across a table doubling differs from an unpadded manager's")
	}
	if !slices.Equal(truthTable(m, got), fireTable(truthTable(m, f), vars, acts)) {
		t.Fatal("Fire across a table doubling differs from enumeration")
	}
	if m.NodeCount(got) != ref.NodeCount(want) {
		t.Fatalf("Fire across a table doubling: %d nodes, want %d", m.NodeCount(got), ref.NodeCount(want))
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
