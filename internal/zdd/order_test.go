package zdd

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/petri"
	"repro/internal/tset"
)

// randOrder returns a random permutation of {0,…,n-1} as a level order.
func randOrder(rng *rand.Rand, n int) []petri.Trans {
	order := make([]petri.Trans, n)
	for l, e := range rng.Perm(n) {
		order[l] = petri.Trans(e)
	}
	return order
}

// orderedManagers returns the identity manager and three over random
// level orders.
func orderedManagers(rng *rand.Rand, n int) []*Manager {
	ms := []*Manager{NewManager(n)}
	for range 3 {
		m := NewManager(n)
		m.SetOrder(randOrder(rng, n))
		ms = append(ms, m)
	}
	return ms
}

func sameSets(a, b []tset.TSet) bool {
	return slices.EqualFunc(a, b, tset.TSet.Equal)
}

// TestLevelOrderInvisible builds the same random families under the
// identity order and three random level orders: Enumerate with limits
// 0, 1 and 3, Count, Contains, OnSet and equality of two families agree
// with the identity order, and so does r₀ of a random conflict graph.
func TestLevelOrderInvisible(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	ms := orderedManagers(rng, n)
	for trial := 0; trial < 150; trial++ {
		sa := randSets(rng, n, rng.Intn(14))
		sb := randSets(rng, n, rng.Intn(14))
		probe := randSets(rng, n, 4)
		v := rng.Intn(n)
		var want []tset.TSet
		var wantEq bool
		for i, m := range ms {
			a, b := m.FromSets(sa), m.FromSets(sb)
			// Built from operators, not from sets, to exercise every one.
			fams := []Node{a, m.Union(a, b), m.Diff(a, b), m.Intersect(m.Union(a, b), b), m.OnSet(a, v)}
			var got []tset.TSet
			for _, f := range fams {
				for _, k := range []int{0, 1, 3} {
					got = append(got, m.Enumerate(f, k)...)
				}
				got = append(got, tset.Of(n, int(m.Count(f))%n))
				for _, s := range append(probe, sa...) {
					if m.Contains(f, s) {
						got = append(got, s)
					}
				}
			}
			eq := m.Union(m.Diff(a, b), m.Intersect(a, b)) == a && m.Intersect(a, b) == m.Intersect(b, a)
			if i == 0 {
				want, wantEq = got, eq
				continue
			}
			if !sameSets(got, want) || eq != wantEq {
				t.Fatalf("trial %d: order %v disagrees with the identity order", trial, m.elem)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				adj[i][j] = rng.Intn(4) == 0
				adj[j][i] = adj[i][j]
			}
		}
		conflict := func(i, j int) bool { return adj[i][j] }
		want := ms[0].Enumerate(ms[0].MaximalConflictFree(conflict), 0)
		for _, m := range ms[1:] {
			if got := m.Enumerate(m.MaximalConflictFree(conflict), 0); !sameSets(got, want) {
				t.Fatalf("r₀ trial %d: order %v gives %v, identity %v", trial, m.elem, got, want)
			}
		}
	}
}

// TestEnumerateLimitIsIdentityPrefix pins what a limit keeps: the first
// sets of a depth-first walk of the identity order, which tries each
// element before its absence, smallest element first.
func TestEnumerateLimitIsIdentityPrefix(t *testing.T) {
	const n = 5
	sets := []tset.TSet{tset.Of(n, 1), tset.Of(n, 0, 4), tset.Of(n, 2, 3), tset.Of(n, 0, 2), tset.Of(n)}
	m := NewManager(n)
	m.SetOrder([]petri.Trans{4, 3, 2, 1, 0})
	got := m.Enumerate(m.FromSets(sets), 3)
	want := []tset.TSet{tset.Of(n, 1), tset.Of(n, 0, 2), tset.Of(n, 0, 4)} // by tset.Compare
	if !sameSets(got, want) {
		t.Errorf("Enumerate(f, 3) = %v, want %v", got, want)
	}
}

// TestSnapshotUnderOrder round-trips a snapshot taken under a random
// level order: a manager with the same order decodes the same families,
// and one with another order decodes the same families or refuses the
// blob with ErrBadSnapshot.
func TestSnapshotUnderOrder(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(5))
	order := randOrder(rng, n)
	a := NewAlgebra(n)
	a.SetOrder(order)
	var roots []Node
	for range 6 {
		roots = append(roots, a.FromSets(randSets(rng, n, rng.Intn(10))))
	}
	roots = append(roots, a.Union(roots[0], roots[1]), a.Empty(), Top)
	blob := a.EncodeFamilies(roots)
	same, other := NewAlgebra(n), NewAlgebra(n)
	same.SetOrder(slices.Clone(order))
	for _, b := range []*Alg{same, other} {
		back, err := b.DecodeFamilies(blob)
		if b == other && errors.Is(err, ErrBadSnapshot) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range roots {
			if want, got := a.Enumerate(r, 0), b.Enumerate(back[i], 0); !sameSets(got, want) {
				t.Errorf("root %d: %v, want %v", i, got, want)
			}
		}
	}
	if !slices.Equal(same.EncodeFamilies(mustDecode(t, same, blob)), blob) {
		t.Error("re-encoding under the same order changed the blob")
	}
}

func mustDecode(t *testing.T, a *Alg, blob []byte) []Node {
	t.Helper()
	roots, err := a.DecodeFamilies(blob)
	if err != nil {
		t.Fatal(err)
	}
	return roots
}

// TestSetOrderRefusals: an order must be a permutation of the universe
// given to an empty manager.
func TestSetOrderRefusals(t *testing.T) {
	for name, f := range map[string]func(){
		"short":     func() { NewManager(3).SetOrder([]petri.Trans{0, 1}) },
		"duplicate": func() { NewManager(3).SetOrder([]petri.Trans{0, 1, 1}) },
		"range":     func() { NewManager(3).SetOrder([]petri.Trans{0, 1, 3}) },
		"built": func() {
			m := NewManager(3)
			m.Single(tset.Of(3, 1))
			m.SetOrder([]petri.Trans{0, 1, 2})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetOrder did not panic", name)
				}
			}()
			f()
		}()
	}
}
