package reduce

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
)

// TestRunBuildsOnce pins the cost model: on the paper's four families no
// place is ever a sink, so the one petri.Net a run assembles is the
// reduced net at the end.
func TestRunBuildsOnce(t *testing.T) {
	for _, c := range []struct {
		family string
		size   int
	}{{"nsdp", 8}, {"asat", 8}, {"over", 5}, {"rw", 12}} {
		net, err := models.ByName(c.family, c.size)
		if err != nil {
			t.Fatal(err)
		}
		r := newReducer(net, Options{})
		if err := r.run(); err != nil {
			t.Fatal(err)
		}
		if !r.cert.Changed() || r.builds != 1 {
			t.Errorf("%s(%d): changed=%v after %d builds, want one build",
				c.family, c.size, r.cert.Changed(), r.builds)
		}
	}
}

// TestRunWithoutApplicationBuildsNothing: when no rule applies the
// certificate hands back the input net itself.
func TestRunWithoutApplicationBuildsNothing(t *testing.T) {
	// c and d each feed a two-input transition (no agglomeration), every
	// place has a consumer (no sink), no arc is a self-loop (no constant
	// place) and the unmarked places are fed from marked ones (no siphon).
	b := petri.NewBuilder("irreducible")
	a, bb, c, d := b.Place("a"), b.Place("b"), b.Place("c"), b.Place("d")
	b.TransArcs("fork", []petri.Place{a, bb}, []petri.Place{c, d})
	b.TransArcs("join", []petri.Place{c, d}, []petri.Place{a, bb})
	b.Mark(a, bb)
	net := b.MustBuild()

	r := newReducer(net, Options{})
	if err := r.run(); err != nil {
		t.Fatal(err)
	}
	if r.builds != 0 || r.cert.Changed() || r.cert.Net() != net {
		t.Fatalf("builds=%d changed=%v same net=%v, want 0, false, true",
			r.builds, r.cert.Changed(), r.cert.Net() == net)
	}
	if r.cert.Rounds() != 1 || r.cert.PlacesRemoved() != 0 || r.cert.TransRemoved() != 0 {
		t.Fatalf("rounds=%d places=-%d trans=-%d on an irreducible net",
			r.cert.Rounds(), r.cert.PlacesRemoved(), r.cert.TransRemoved())
	}
}

// TestDropPlaceRefusesEmptyPreset forces the edit every rule's guard
// rules out: removing the only input place of a kept transition is a
// returned error that names the transition, raised before anything is
// edited.
func TestDropPlaceRefusesEmptyPreset(t *testing.T) {
	b := petri.NewBuilder("guard")
	a, bb := b.Place("a"), b.Place("b")
	b.TransArcs("only", []petri.Place{a}, []petri.Place{bb})
	b.TransArcs("back", []petri.Place{bb}, []petri.Place{a})
	b.Mark(a)
	net := b.MustBuild()

	r := newReducer(net, Options{})
	err := r.dropPlace(a, recon{kind: reconConst, value: 1})
	if !errors.Is(err, errEmptyPreset) || !strings.Contains(err.Error(), "only") {
		t.Fatalf("dropPlace(a) = %v, want errEmptyPreset naming transition only", err)
	}
	if !r.aliveP[a] || len(r.pre[0]) != 1 || len(r.cert.recons) != 0 || r.cur != net {
		t.Fatal("a refused removal edited the working copy")
	}
	// Once the transition is gone the same removal goes through.
	r.dropTrans(0)
	if err := r.dropPlace(a, recon{kind: reconConst, value: 1}); err != nil {
		t.Fatal(err)
	}
	r.materialize()
	if r.cur.NumPlaces() != 1 || r.cur.NumTrans() != 1 || len(r.cur.Post(0)) != 0 {
		t.Fatalf("after the removal: %d places, %d transitions", r.cur.NumPlaces(), r.cur.NumTrans())
	}
}
