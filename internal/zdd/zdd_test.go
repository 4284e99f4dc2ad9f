package zdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/family"
	"repro/internal/tset"
)

func randSets(rng *rand.Rand, n, count int) []tset.TSet {
	out := make([]tset.TSet, count)
	for i := range out {
		s := tset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				s.Add(v)
			}
		}
		out[i] = s
	}
	return out
}

// TestAgainstExplicit cross-validates every ZDD operation against the
// explicit family package on random inputs.
func TestAgainstExplicit(t *testing.T) {
	const n = 10
	rng := rand.New(rand.NewSource(3))
	m := NewManager(n)
	for trial := 0; trial < 200; trial++ {
		sa := randSets(rng, n, rng.Intn(12))
		sb := randSets(rng, n, rng.Intn(12))
		ea := family.Of(n, sa...)
		eb := family.Of(n, sb...)
		za := m.FromSets(sa)
		zb := m.FromSets(sb)

		check := func(label string, ef *family.Family, zf Node) {
			if float64(ef.Size()) != m.Count(zf) {
				t.Fatalf("trial %d %s: count %d vs %v", trial, label, ef.Size(), m.Count(zf))
			}
			for _, s := range m.Enumerate(zf, 0) {
				if !ef.Contains(s) {
					t.Fatalf("trial %d %s: zdd has extra set %v", trial, label, s)
				}
			}
			for _, s := range ef.Sets() {
				if !m.Contains(zf, s) {
					t.Fatalf("trial %d %s: zdd misses set %v", trial, label, s)
				}
			}
		}
		check("a", ea, za)
		check("union", ea.Union(eb), m.Union(za, zb))
		check("intersect", ea.Intersect(eb), m.Intersect(za, zb))
		check("diff", ea.Diff(eb), m.Diff(za, zb))
		v := rng.Intn(n)
		check("onset", ea.OnSet(v), m.OnSet(za, v))
	}
}

// TestCanonicity checks that equal families built differently are the same
// node.
func TestCanonicity(t *testing.T) {
	const n = 6
	m := NewManager(n)
	a := tset.Of(n, 0, 2)
	b := tset.Of(n, 1, 3, 5)
	c := tset.Of(n, 4)
	f1 := m.Union(m.Union(m.Single(a), m.Single(b)), m.Single(c))
	f2 := m.Union(m.Single(c), m.Union(m.Single(b), m.Single(a)))
	if f1 != f2 {
		t.Errorf("same family, different nodes: %d vs %d", f1, f2)
	}
}

// TestAlgebraLaws property-checks family algebra laws on the ZDD
// representation via testing/quick.
func TestAlgebraLaws(t *testing.T) {
	const n = 8
	m := NewManager(n)
	gen := func(seed int64) Node {
		rng := rand.New(rand.NewSource(seed))
		return m.FromSets(randSets(rng, n, rng.Intn(10)))
	}
	laws := map[string]func(x, y, z int64) bool{
		"union-commutes": func(x, y, _ int64) bool {
			a, b := gen(x), gen(y)
			return m.Union(a, b) == m.Union(b, a)
		},
		"intersect-distributes": func(x, y, z int64) bool {
			a, b, c := gen(x), gen(y), gen(z)
			return m.Intersect(a, m.Union(b, c)) ==
				m.Union(m.Intersect(a, b), m.Intersect(a, c))
		},
		"diff-partition": func(x, y, _ int64) bool {
			a, b := gen(x), gen(y)
			return m.Union(m.Diff(a, b), m.Intersect(a, b)) == a
		},
		"demorgan-ish": func(x, y, z int64) bool {
			a, b, c := gen(x), gen(y), gen(z)
			return m.Diff(a, m.Union(b, c)) == m.Diff(m.Diff(a, b), c)
		},
	}
	for name, law := range laws {
		if err := quick.Check(law, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestMaximalConflictFreeMatchesExplicit compares the BDD-extracted r₀
// against the Bron–Kerbosch enumeration on random conflict graphs.
func TestMaximalConflictFreeMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					adj[i][j], adj[j][i] = true, true
				}
			}
		}
		conflict := func(i, j int) bool { return adj[i][j] }
		want := family.MaximalConflictFree(n, conflict)
		m := NewManager(n)
		got := m.MaximalConflictFree(conflict)
		if float64(want.Size()) != m.Count(got) {
			t.Fatalf("trial %d (n=%d): %d explicit vs %v zdd MIS",
				trial, n, want.Size(), m.Count(got))
		}
		for _, s := range want.Sets() {
			if !m.Contains(got, s) {
				t.Fatalf("trial %d: zdd r0 misses %v", trial, s)
			}
		}
	}
}

// TestProductFamilyCompression checks the representational claim behind
// the ZDD algebra: the 2^N maximal conflict-free sets of the Figure 2
// conflict structure need only O(N) ZDD nodes.
func TestProductFamilyCompression(t *testing.T) {
	const pairs = 20 // 2^20 sets
	n := 2 * pairs
	m := NewManager(n)
	conflict := func(i, j int) bool { return i/2 == j/2 && i != j }
	r0 := m.MaximalConflictFree(conflict)
	if got, want := m.Count(r0), float64(int64(1)<<pairs); got != want {
		t.Fatalf("|r0| = %v, want 2^%d = %v", got, pairs, want)
	}
	if nodes := m.NodeCount(r0); nodes > 4*n {
		t.Errorf("r0 uses %d nodes for %d elements; expected linear (< %d)",
			nodes, n, 4*n)
	}
}

func TestEnumerateLimit(t *testing.T) {
	const n = 6
	m := NewManager(n)
	rng := rand.New(rand.NewSource(5))
	f := m.FromSets(randSets(rng, n, 20))
	total := int(m.Count(f))
	if got := len(m.Enumerate(f, 3)); got != min(3, total) {
		t.Errorf("Enumerate(3) returned %d sets", got)
	}
	if got := len(m.Enumerate(f, 0)); got != total {
		t.Errorf("Enumerate(0) returned %d of %d sets", got, total)
	}
}

func TestTopBot(t *testing.T) {
	m := NewManager(4)
	if a := (&Alg{m}); !a.IsEmpty(Bot) || a.IsEmpty(Top) {
		t.Fatal("terminal emptiness")
	}
	if m.Count(Top) != 1 || m.Count(Bot) != 0 {
		t.Fatal("terminal counts")
	}
	empty := tset.New(4)
	if !m.Contains(Top, empty) {
		t.Error("Top must contain the empty set")
	}
	if m.Contains(Bot, empty) {
		t.Error("Bot contains nothing")
	}
}

// TestCountAllocFree pins the persistent Count memo: after the first
// Count of a family, repeated Counts (of it and of its subgraphs) must
// not allocate. A regression here means the per-call memo map came back.
func TestCountAllocFree(t *testing.T) {
	const n = 12
	m := NewManager(n)
	rng := rand.New(rand.NewSource(7))
	f := m.FromSets(randSets(rng, n, 64))
	g := m.FromSets(randSets(rng, n, 64))
	u := m.Union(f, g)
	want := m.Count(u) // warm the memo
	if avg := testing.AllocsPerRun(100, func() {
		if got := m.Count(u); got != want {
			t.Fatalf("Count drifted: %v != %v", got, want)
		}
		m.Count(f)
		m.Count(g)
	}); avg != 0 {
		t.Errorf("repeated Count allocates %.1f objects/op, want 0", avg)
	}
}

// TestCountMemoSurvivesGrowth checks that Count stays exact across
// unique-table doublings, and that its memo holds exactly the internal
// nodes below the families counted so far: none of the nodes the
// operators created on the way.
func TestCountMemoSurvivesGrowth(t *testing.T) {
	const n = 16
	m := NewManager(n)
	grows := 0
	m.GrowHook = func(table string, _ int) {
		if table == "unique" {
			grows++
		}
	}
	rng := rand.New(rand.NewSource(11))
	fam := family.Empty(n)
	f := Bot
	var counted []Node
	for round := 0; round < 8; round++ {
		sets := randSets(rng, n, 128)
		f = m.Union(f, m.FromSets(sets))
		fam = fam.Union(family.Of(n, sets...))
		if got, want := m.Count(f), float64(fam.Size()); got != want {
			t.Fatalf("round %d: Count=%v want %v", round, got, want)
		}
		counted = append(counted, f)
		m.nodes.Walk()
		below := 0
		for _, r := range counted {
			below += m.mark(r)
		}
		if len(m.count) != below+2 || below >= m.Size()/2 { // and the two terminals
			t.Fatalf("round %d: count memo of %d entries; %d nodes lie below the counted families, of %d",
				round, len(m.count), below, m.Size())
		}
		for a := range m.count {
			if !m.nodes.Seen(a) {
				t.Fatalf("round %d: node %d is memoized but lies below no counted family", round, a)
			}
		}
	}
	if grows < 2 {
		t.Errorf("unique table doubled %d times; the test no longer crosses a growth", grows)
	}
	st := m.Stats()
	if st.UniqueEntries == 0 || st.UniqueSlots < st.UniqueEntries {
		t.Errorf("implausible unique table stats: %+v", st)
	}
}
