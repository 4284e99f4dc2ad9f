package petri_test

import (
	"math/rand"
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
	if m.Hash() != petri.HashKey(m.Key()) {
		t.Fatalf("%s: Hash() differs from HashKey(Key()) on %s", n.Name(), m.String(n))
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
		if !m.Equal(before) {
			t.Fatalf("%s: firing %s modified its source marking", n.Name(), n.TransName(tr))
		}
		if !wantSafe {
			unsafe++
		}
	}
	got := n.EnabledTrans(m)
	if len(got) != len(enabled) || n.IsDeadlock(m) != (len(enabled) == 0) {
		t.Fatalf("%s: EnabledTrans(%s) = %v, definition says %v", n.Name(), m.String(n), got, enabled)
	}
	for i := range got {
		if got[i] != enabled[i] {
			t.Fatalf("%s: EnabledTrans(%s) = %v, definition says %v", n.Name(), m.String(n), got, enabled)
		}
	}
	return unsafe
}

// TestMaskKernelsMatchDefinitions is the property test of the word-mask
// firing kernels: on every (marking, transition) pair over the reachable
// markings (first 1 000 in BFS order) of the Table 1 families and of
// randnet seeds 1–200, Enabled, EnabledTrans, IsDeadlock, Fire and
// FireInto agree with Definitions 2.3/2.4 evaluated place by place.
// Reachable markings of these nets are all safe, so each net is also
// probed with random markings, where output places are often occupied:
// the unsafe verdict must agree there too (and must occur).
func TestMaskKernelsMatchDefinitions(t *testing.T) {
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

// TestKernelsRejectNarrowMarking pins that both kernels address the masks
// by the net's own width: a marking of fewer words (one of a reduced or
// derived net, say) fails a bounds check in Enabled as in FireInto
// instead of being tested against another transition's mask words.
func TestKernelsRejectNarrowMarking(t *testing.T) {
	n := models.NSDP(16)
	if n.Words() < 2 {
		t.Fatalf("nsdp(16) fits %d word(s); want a multi-word net", n.Words())
	}
	narrow := make(petri.Marking, n.Words()-1)
	for i := range narrow {
		narrow[i] = ^uint64(0) // covers every pre mask: no early "disabled"
	}
	last := petri.Trans(n.NumTrans() - 1)
	for name, kernel := range map[string]func(){
		"Enabled":  func() { n.Enabled(narrow, last) },
		"FireInto": func() { n.FireInto(n.EmptyMarking(), narrow, last) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a %d-word marking on a %d-word net", name, len(narrow), n.Words())
				}
			}()
			kernel()
		}()
	}
}
