package petri_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
)

// enabledByPlaces is Definition 2.3 read off the place lists: t is
// enabled iff every input place carries a token.
func enabledByPlaces(n *petri.Net, m petri.Marking, t petri.Trans) bool {
	for _, p := range n.Pre(t) {
		if !m.Has(p) {
			return false
		}
	}
	return true
}

// fireByPlaces is Definition 2.4 read off the place lists, with the safe
// verdict: an output place outside •t that is already marked.
func fireByPlaces(n *petri.Net, m petri.Marking, t petri.Trans) (next petri.Marking, safe bool) {
	next = m.Clone()
	for _, p := range n.Pre(t) {
		next.Clear(p)
	}
	safe = true
	for _, p := range n.Post(t) {
		if next.Has(p) {
			safe = false
		}
		next.Set(p)
	}
	return next, safe
}

// checkKernels compares the word-mask Enabled / Fire / FireInto / Hash
// with the place-list definitions on every transition of one marking,
// and reports how many firings were unsafe.
func checkKernels(t *testing.T, n *petri.Net, m petri.Marking, scratch petri.Marking) (unsafe int) {
	t.Helper()
	if m.Hash() != m.Clone().Hash() {
		t.Fatalf("%s: a copy of %s hashes differently", n.Name(), m.String(n))
	}
	var enabled []petri.Trans
	for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
		want := enabledByPlaces(n, m, tr)
		if got := n.Enabled(m, tr); got != want {
			t.Fatalf("%s: Enabled(%s, %s) = %v, definition says %v", n.Name(), m.String(n), n.TransName(tr), got, want)
		}
		if !want {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: FireInto of disabled %s did not panic", n.Name(), n.TransName(tr))
					}
				}()
				n.FireInto(scratch, m, tr)
			}()
			continue
		}
		enabled = append(enabled, tr)
		before := m.Clone()
		wantNext, wantSafe := fireByPlaces(n, m, tr)
		safe := n.FireInto(scratch, m, tr)
		next, safe2 := n.Fire(m, tr)
		if !scratch.Equal(wantNext) || !next.Equal(wantNext) || safe != wantSafe || safe2 != wantSafe {
			t.Fatalf("%s: firing %s from %s: FireInto (%s, %v), Fire (%s, %v), definition (%s, %v)", n.Name(),
				n.TransName(tr), m.String(n), scratch.String(n), safe, next.String(n), safe2, wantNext.String(n), wantSafe)
		}
		if scratch.Hash() != wantNext.Hash() {
			t.Fatalf("%s: firing %s from %s: equal successors hash differently", n.Name(), n.TransName(tr), m.String(n))
		}
		if !m.Equal(before) {
			t.Fatalf("%s: firing %s modified its source marking", n.Name(), n.TransName(tr))
		}
		if !wantSafe {
			unsafe++
		}
	}
	got := n.EnabledTrans(m)
	if !slices.Equal(got, enabled) || n.IsDeadlock(m) != (len(enabled) == 0) {
		t.Fatalf("%s: EnabledTrans(%s) = %v, definition says %v", n.Name(), m.String(n), got, enabled)
	}
	// AppendEnabled keeps what dst holds and orders only what it appends:
	// the prefix here is out of order on purpose.
	prefix := []petri.Trans{5, 2}
	got = n.AppendEnabled(slices.Clip(prefix), m)
	if !slices.Equal(got[:2], []petri.Trans{5, 2}) || !slices.Equal(got[2:], enabled) {
		t.Fatalf("%s: AppendEnabled(%v, %s) = %v, want the prefix then %v", n.Name(), prefix, m.String(n), got, enabled)
	}
	for i := 3; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("%s: AppendEnabled(%s) = %v: not strictly increasing", n.Name(), m.String(n), got[2:])
		}
	}
	return unsafe
}

// reversed returns n with its transitions declared last to first, so the
// transitions indexed under one place come out of the enabled-set walk in
// decreasing order.
func reversed(n *petri.Net) *petri.Net {
	b := petri.NewBuilder(n.Name() + "/reversed")
	for p := 0; p < n.NumPlaces(); p++ {
		b.Place(n.PlaceName(petri.Place(p)))
	}
	for t := petri.Trans(n.NumTrans() - 1); t >= 0; t-- {
		b.TransArcs(n.TransName(t), n.Pre(t), n.Post(t))
	}
	b.Mark(n.InitialPlaces()...)
	return b.MustBuild()
}

// table1Nets returns the Table 1 families at small to middling sizes.
func table1Nets(t *testing.T) []*petri.Net {
	var nets []*petri.Net
	for _, spec := range []struct {
		family string
		sizes  []int
	}{
		{"nsdp", []int{2, 4, 6}}, {"asat", []int{2, 4, 8}}, {"over", []int{2, 4}}, {"rw", []int{3, 9, 15}},
	} {
		for _, size := range spec.sizes {
			n, err := models.ByName(spec.family, size)
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, n)
		}
	}
	return nets
}

// TestMaskKernelsMatchDefinitions is the property test of the word-mask
// firing kernels: on every (marking, transition) pair over the reachable
// markings (first 1 000 in BFS order) of the Table 1 families and of
// randnet seeds 1–200, Enabled, EnabledTrans, AppendEnabled, IsDeadlock,
// Fire and FireInto agree with Definitions 2.3/2.4 evaluated place by
// place. The Table 1 nets also run with a safety monitor, whose run place
// is in every preset, and declared in reverse, so the enabled-set walk
// meets its candidates out of order. Reachable markings of these nets are
// all safe, so each net is also probed with random markings, where output
// places are often occupied: the unsafe verdict must agree there too (and
// must occur).
func TestMaskKernelsMatchDefinitions(t *testing.T) {
	var nets []*petri.Net
	for _, n := range table1Nets(t) {
		mon, _, err := petri.WithSafetyMonitor(n, []petri.Place{0, petri.Place(n.NumPlaces() - 1)})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n, mon, reversed(n))
	}
	for seed := int64(1); seed <= 200; seed++ {
		cfg := randnet.Default(seed)
		if seed%4 == 0 { // every fourth net needs two or three marking words
			cfg.Machines, cfg.PlacesPer = 5, 13+int(seed%30)
		}
		nets = append(nets, randnet.Generate(cfg))
	}

	unsafe := 0
	for _, n := range nets {
		scratch := n.EmptyMarking()
		reached := []petri.Marking{n.InitialMarking()}
		seen := map[string]bool{reached[0].Key(): true}
		for i := 0; i < len(reached); i++ {
			m := reached[i]
			if got := checkKernels(t, n, m, scratch); got != 0 {
				t.Fatalf("%s: unsafe firing from reachable %s", n.Name(), m.String(n))
			}
			for _, tr := range n.EnabledTrans(m) {
				if next, _ := n.Fire(m, tr); !seen[next.Key()] && len(reached) < 1000 {
					seen[next.Key()] = true
					reached = append(reached, next)
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(n.NumPlaces())))
		for i := 0; i < 50; i++ {
			m := n.EmptyMarking()
			for p := 0; p < n.NumPlaces(); p++ {
				if rng.Intn(2) == 0 {
					m.Set(petri.Place(p))
				}
			}
			unsafe += checkKernels(t, n, m, scratch)
		}
	}
	if unsafe == 0 {
		t.Fatal("no unsafe firing among the random markings: the unsafe verdict went untested")
	}
}

// TestHashNoCollisionsTable1 pins that Hash spreads the markings the
// explorers meet: no two distinct reachable markings of a Table 1 net of
// up to 150 000 states (every row but nsdp(10) and asat(8)) share a
// 64-bit hash. The BFS below keeps its visited set by hash alone, so a
// collision is met as an equal hash on unequal words.
func TestHashNoCollisionsTable1(t *testing.T) {
	for _, spec := range []struct {
		family string
		sizes  []int
	}{
		{"nsdp", []int{2, 4, 6, 8}}, {"asat", []int{2, 4}}, {"over", []int{2, 3, 4, 5}}, {"rw", []int{6, 9, 12, 15}},
	} {
		for _, size := range spec.sizes {
			n, err := models.ByName(spec.family, size)
			if err != nil {
				t.Fatal(err)
			}
			m0 := n.InitialMarking()
			seen := map[uint64]petri.Marking{m0.Hash(): m0}
			for queue := []petri.Marking{m0}; len(queue) > 0; queue = queue[1:] {
				for _, tr := range n.EnabledTrans(queue[0]) {
					next, _ := n.Fire(queue[0], tr)
					h := next.Hash()
					if old, ok := seen[h]; !ok {
						seen[h] = next
						queue = append(queue, next)
					} else if !old.Equal(next) {
						t.Fatalf("%s: %s and %s share hash %x", n.Name(), old.String(n), next.String(n), h)
					}
				}
			}
			t.Logf("%s: %d markings, no shared hash", n.Name(), len(seen))
		}
	}
}

// TestKernelsRejectNarrowMarking pins that the kernels address the masks
// by the net's own width: a marking of fewer words (one of a reduced or
// derived net, say) fails a bounds check in Enabled as in FireInto
// instead of being tested against another transition's mask words, and
// the enabled-set walks refuse any marking of another width — walked, an
// all-zero narrow one would pass for a deadlock.
func TestKernelsRejectNarrowMarking(t *testing.T) {
	n := models.NSDP(16)
	if n.Words() < 2 {
		t.Fatalf("nsdp(16) fits %d word(s); want a multi-word net", n.Words())
	}
	narrow := make(petri.Marking, n.Words()-1)
	for i := range narrow {
		narrow[i] = ^uint64(0) // covers every pre mask: no early "disabled"
	}
	zero := make(petri.Marking, n.Words()-1)
	wide := append(n.InitialMarking(), 0)
	last := petri.Trans(n.NumTrans() - 1)
	for name, kernel := range map[string]func(){
		"Enabled":            func() { n.Enabled(narrow, last) },
		"FireInto":           func() { n.FireInto(n.EmptyMarking(), narrow, last) },
		"AppendEnabled":      func() { n.AppendEnabled(nil, narrow) },
		"AppendEnabled/zero": func() { n.AppendEnabled(nil, zero) },
		"AppendEnabled/wide": func() { n.AppendEnabled(nil, wide) },
		"IsDeadlock":         func() { n.IsDeadlock(narrow) },
		"IsDeadlock/zero":    func() { n.IsDeadlock(zero) },
		"IsDeadlock/wide":    func() { n.IsDeadlock(wide) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a marking of another width on a %d-word net", name, n.Words())
				}
			}()
			kernel()
		}()
	}
}

// TestConflictMatchesDefinition pins Build's conflict relation and
// maximal conflict sets against Definition 2.2 read off the presets: t
// and u conflict iff t ≠ u and •t ∩ •u ≠ ∅, and the clusters are the
// components of that relation, each sorted, ordered by smallest member.
// It runs on the Table 1 nets, with and without a safety monitor, on
// randnet seeds 1–50, and on nsdp(683), whose 4 098 transitions are past
// the dense bitset and take the preset intersection.
func TestConflictMatchesDefinition(t *testing.T) {
	var nets []*petri.Net
	for _, n := range table1Nets(t) {
		mon, _, err := petri.WithSafetyMonitor(n, []petri.Place{0})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n, mon)
	}
	for seed := int64(1); seed <= 50; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	big := models.NSDP(683)
	if big.NumTrans() <= 4096 {
		t.Fatalf("nsdp(683) has %d transitions; want more than 4096", big.NumTrans())
	}
	nets = append(nets, big)

	for _, n := range nets {
		nt := n.NumTrans()
		mark := make([]int, n.NumPlaces()) // mark[p] == t+1: p ∈ •t
		comp := make([]int, nt)            // component label, -1 = unvisited
		for i := range comp {
			comp[i] = -1
		}
		conflicts := func(t, u petri.Trans) bool {
			if t == u {
				return false
			}
			for _, p := range n.Pre(u) {
				if mark[p] == int(t)+1 {
					return true
				}
			}
			return false
		}
		var want [][]petri.Trans
		for tr := petri.Trans(0); int(tr) < nt; tr++ {
			for _, p := range n.Pre(tr) {
				mark[p] = int(tr) + 1
			}
			var set []petri.Trans
			for u := petri.Trans(0); int(u) < nt; u++ {
				want := conflicts(tr, u)
				if got := n.Conflict(tr, u); got != want {
					t.Fatalf("%s: Conflict(%s, %s) = %v, definition says %v", n.Name(), n.TransName(tr), n.TransName(u), got, want)
				}
				if want {
					set = append(set, u)
				}
			}
			if got := n.ConflictSet(tr); !slices.Equal(got, set) {
				t.Fatalf("%s: ConflictSet(%s) = %v, definition says %v", n.Name(), n.TransName(tr), got, set)
			}
			if comp[tr] >= 0 {
				continue
			}
			// A new component: flood it through the shared input places.
			comp[tr] = len(want)
			members := []petri.Trans{tr}
			for i := 0; i < len(members); i++ {
				for _, p := range n.Pre(members[i]) {
					for _, u := range n.PostT(p) {
						if comp[u] < 0 {
							comp[u] = comp[tr]
							members = append(members, u)
						}
					}
				}
			}
			slices.Sort(members)
			want = append(want, members)
		}
		if got := n.Clusters(); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: Clusters() = %v, definition says %v", n.Name(), got, want)
		}
		for tr := petri.Trans(0); int(tr) < nt; tr++ {
			if n.ClusterOf(tr) != comp[tr] {
				t.Fatalf("%s: ClusterOf(%s) = %d, want %d", n.Name(), n.TransName(tr), n.ClusterOf(tr), comp[tr])
			}
		}
	}
}

// TestNetListsClipped: every list a Net hands out has its capacity at its
// length. The lists of one kind share a backing array, so a caller that
// appended to one with room to spare would write into its neighbour.
func TestNetListsClipped(t *testing.T) {
	for _, n := range table1Nets(t) {
		mon, _, err := petri.WithSafetyMonitor(n, n.InitialPlaces()[:1])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []*petri.Net{n, reversed(n), mon} {
			clipped := func(what string, i, l, c int) {
				if l != c {
					t.Errorf("%s: %s(%d) has len %d, cap %d", n.Name(), what, i, l, c)
				}
			}
			for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
				clipped("Pre", int(tr), len(n.Pre(tr)), cap(n.Pre(tr)))
				clipped("Post", int(tr), len(n.Post(tr)), cap(n.Post(tr)))
			}
			for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
				clipped("PreT", int(p), len(n.PreT(p)), cap(n.PreT(p)))
				clipped("PostT", int(p), len(n.PostT(p)), cap(n.PostT(p)))
			}
			for i, c := range n.Clusters() {
				clipped("Clusters", i, len(c), cap(c))
			}
			clipped("InitialPlaces", 0, len(n.InitialPlaces()), cap(n.InitialPlaces()))
			// The property the capacities buy: an append copies, so
			// appending to every list leaves every list as it was.
			var before [][]petri.Place
			for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
				before = append(before, slices.Clone(n.Pre(tr)), slices.Clone(n.Post(tr)))
			}
			for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
				_, _ = append(n.Pre(tr), -1), append(n.Post(tr), -1)
			}
			for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
				_, _ = append(n.PreT(p), -1), append(n.PostT(p), -1)
			}
			for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
				if !slices.Equal(n.Pre(tr), before[2*tr]) || !slices.Equal(n.Post(tr), before[2*tr+1]) {
					t.Fatalf("%s: an append to a list wrote into %s's arcs", n.Name(), n.TransName(tr))
				}
			}
		}
	}
}
