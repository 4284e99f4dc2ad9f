package petri

import (
	"testing"
)

func buildDiamond(t *testing.T) *Net {
	t.Helper()
	b := NewBuilder("diamond")
	p0 := b.Place("p0")
	p1 := b.Place("p1")
	p2 := b.Place("p2")
	p3 := b.Place("p3")
	b.TransArcs("a", []Place{p0}, []Place{p1})
	b.TransArcs("b", []Place{p0}, []Place{p2})
	b.TransArcs("c", []Place{p1, p2}, []Place{p3})
	b.Mark(p0)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuilderBasics(t *testing.T) {
	n := buildDiamond(t)
	if n.NumPlaces() != 4 || n.NumTrans() != 3 {
		t.Fatalf("sizes wrong: %d places %d trans", n.NumPlaces(), n.NumTrans())
	}
	a, ok := n.TransByName("a")
	if !ok {
		t.Fatal("missing transition a")
	}
	if len(n.Pre(a)) != 1 || n.PlaceName(n.Pre(a)[0]) != "p0" {
		t.Error("preset of a wrong")
	}
	c, _ := n.TransByName("c")
	if len(n.Pre(c)) != 2 {
		t.Error("preset of c wrong")
	}
	p0, _ := n.PlaceByName("p0")
	if len(n.PostT(p0)) != 2 {
		t.Error("p0 postset wrong")
	}
	if _, ok := n.PlaceByName("nope"); ok {
		t.Error("found nonexistent place")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := map[string]func(b *Builder){
		"dup-place": func(b *Builder) { b.Place("x"); b.Place("x") },
		"dup-trans": func(b *Builder) {
			p := b.Place("p")
			b.TransArcs("t", []Place{p}, nil)
			b.TransArcs("t", []Place{p}, nil)
		},
		"dup-arc": func(b *Builder) {
			p := b.Place("p")
			tt := b.Trans("t")
			b.In(tt, p, p)
		},
		"empty-preset": func(b *Builder) {
			p := b.Place("p")
			tt := b.Trans("t")
			b.Out(tt, p)
		},
		"double-mark": func(b *Builder) {
			p := b.Place("p")
			tt := b.Trans("t")
			b.In(tt, p)
			b.Mark(p, p)
		},
		"unknown-place": func(b *Builder) {
			tt := b.Trans("t")
			b.In(tt, Place(42))
		},
	}
	for name, f := range cases {
		b := NewBuilder(name)
		f(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: expected build error", name)
		}
	}
}

func TestEnablingAndFiring(t *testing.T) {
	n := buildDiamond(t)
	m := n.InitialMarking()
	a, _ := n.TransByName("a")
	b, _ := n.TransByName("b")
	c, _ := n.TransByName("c")
	if !n.Enabled(m, a) || !n.Enabled(m, b) || n.Enabled(m, c) {
		t.Fatal("initial enabling wrong")
	}
	m1, safe := n.Fire(m, a)
	if !safe {
		t.Fatal("safe firing flagged unsafe")
	}
	if n.Enabled(m1, a) || n.Enabled(m1, b) || n.Enabled(m1, c) {
		t.Fatal("after a: nothing should be enabled (p0 consumed)")
	}
	p1, _ := n.PlaceByName("p1")
	if !m1.Has(p1) {
		t.Error("token not moved to p1")
	}
	if m.Has(p1) {
		t.Error("Fire mutated its input marking")
	}
	if !n.IsDeadlock(m1) {
		t.Error("m1 is a deadlock")
	}
}

func TestFirePanicsWhenDisabled(t *testing.T) {
	n := buildDiamond(t)
	c, _ := n.TransByName("c")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Fire(n.InitialMarking(), c)
}

func TestUnsafeFiringDetected(t *testing.T) {
	b := NewBuilder("unsafe")
	p := b.Place("p")
	q := b.Place("q")
	b.TransArcs("t", []Place{p}, []Place{q})
	b.Mark(p, q) // q already marked: firing t double-marks q
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tt, _ := n.TransByName("t")
	if _, safe := n.Fire(n.InitialMarking(), tt); safe {
		t.Error("unsafe firing not detected")
	}
}

func TestConflictRelation(t *testing.T) {
	n := buildDiamond(t)
	a, _ := n.TransByName("a")
	b, _ := n.TransByName("b")
	c, _ := n.TransByName("c")
	if !n.Conflict(a, b) {
		t.Error("a and b share p0: must conflict")
	}
	if n.Conflict(a, a) {
		t.Error("self-conflict")
	}
	// c shares p1 with nothing else (only consumer) — but a and c share
	// no input place; c is in conflict with no one.
	if n.Conflict(a, c) || n.Conflict(b, c) {
		t.Error("spurious conflicts")
	}
	if got := n.ConflictSet(a); len(got) != 1 || got[0] != b {
		t.Errorf("ConflictSet(a)=%v", got)
	}
}

func TestClusters(t *testing.T) {
	n := buildDiamond(t)
	cl := n.Clusters()
	// {a,b} and {c}.
	if len(cl) != 2 {
		t.Fatalf("%d clusters, want 2", len(cl))
	}
	a, _ := n.TransByName("a")
	b, _ := n.TransByName("b")
	if n.ClusterOf(a) != n.ClusterOf(b) {
		t.Error("a and b must share a cluster")
	}
}

func TestMarkingKeyAndString(t *testing.T) {
	n := buildDiamond(t)
	m := n.InitialMarking()
	if m.Key() != n.InitialMarking().Key() {
		t.Error("equal markings, different keys")
	}
	p1, _ := n.PlaceByName("p1")
	m2 := m.Clone()
	m2.Set(p1)
	if m.Key() == m2.Key() {
		t.Error("different markings share a key")
	}
	if got := m.String(n); got != "{p0}" {
		t.Errorf("String=%q", got)
	}
	if !m2.Equal(m2.Clone()) || m.Equal(m2) {
		t.Error("Equal wrong")
	}
}

func TestCloneBuilderRoundTrip(t *testing.T) {
	n := buildDiamond(t)
	n2, err := CloneBuilder(n).Build()
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumPlaces() != n.NumPlaces() || n2.NumTrans() != n.NumTrans() {
		t.Fatal("clone size mismatch")
	}
	if !n2.InitialMarking().Equal(n.InitialMarking()) {
		t.Error("clone initial marking differs")
	}
	for tr := Trans(0); int(tr) < n.NumTrans(); tr++ {
		if len(n.Pre(tr)) != len(n2.Pre(tr)) || len(n.Post(tr)) != len(n2.Post(tr)) {
			t.Errorf("arcs of %s differ", n.TransName(tr))
		}
	}
}

func TestWithSafetyMonitor(t *testing.T) {
	n := buildDiamond(t)
	p1, _ := n.PlaceByName("p1")
	p2, _ := n.PlaceByName("p2")
	mon, trap, err := WithSafetyMonitor(n, []Place{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if mon.NumPlaces() != n.NumPlaces()+2 {
		t.Error("monitor must add run and trap places")
	}
	if mon.NumTrans() != n.NumTrans()+1 {
		t.Error("monitor must add one transition")
	}
	if mon.PlaceName(trap) != "__trap" {
		t.Errorf("trap place name %q", mon.PlaceName(trap))
	}
	// Every original transition now self-loops on run: they all conflict.
	a, _ := mon.TransByName("a")
	c, _ := mon.TransByName("c")
	if !mon.Conflict(a, c) {
		t.Error("run self-loop must make all transitions conflict")
	}
	if _, _, err := WithSafetyMonitor(n, nil); err == nil {
		t.Error("empty bad set must error")
	}
}

// TestBuilderErrorContract pins the exact text Build returns for each
// construction mistake, one mistake per net, whichever step detects it.
func TestBuilderErrorContract(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"dup-place", func(b *Builder) {
			p := b.Place("x")
			b.Place("x")
			b.TransArcs("t", []Place{p}, nil)
		}, `petri: building "dup-place": petri: duplicate place name "x"`},
		{"dup-trans", func(b *Builder) {
			p := b.Place("p")
			b.TransArcs("t", []Place{p}, nil)
			b.TransArcs("t", []Place{p}, nil)
		}, `petri: building "dup-trans": petri: duplicate transition name "t"`},
		{"dup-in-arc", func(b *Builder) {
			p := b.Place("p")
			b.In(b.Trans("t"), p, p)
		}, `petri: building "dup-in-arc": petri: duplicate arc p -> t`},
		{"dup-out-arc", func(b *Builder) {
			p := b.Place("p")
			b.TransArcs("t", []Place{p}, []Place{p, p})
		}, `petri: building "dup-out-arc": petri: duplicate arc t -> p`},
		{"unknown-in-trans", func(b *Builder) {
			b.In(Trans(3), b.Place("p"))
		}, `petri: building "unknown-in-trans": petri: In: unknown transition 3`},
		{"unknown-out-trans", func(b *Builder) {
			b.Out(Trans(-1), b.Place("p"))
		}, `petri: building "unknown-out-trans": petri: Out: unknown transition -1`},
		{"unknown-in-place", func(b *Builder) {
			p := b.Place("p")
			b.In(b.Trans("t"), p, Place(42))
		}, `petri: building "unknown-in-place": petri: In: unknown place 42`},
		{"unknown-out-place", func(b *Builder) {
			b.TransArcs("t", []Place{b.Place("p")}, []Place{Place(-2)})
		}, `petri: building "unknown-out-place": petri: Out: unknown place -2`},
		{"unknown-mark", func(b *Builder) {
			b.TransArcs("t", []Place{b.Place("p")}, nil)
			b.Mark(Place(1))
		}, `petri: building "unknown-mark": petri: Mark: unknown place 1`},
		{"double-mark", func(b *Builder) {
			p := b.Place("p")
			b.TransArcs("t", []Place{p}, nil)
			b.Mark(p, p)
		}, `petri: building "double-mark": petri: place p marked twice`},
		{"empty-preset", func(b *Builder) {
			b.TransArcs("t", nil, []Place{b.Place("p")})
		}, `petri: building "empty-preset": petri: transition t has no input places`},
		{"two-mistakes", func(b *Builder) {
			p := b.Place("p")
			b.TransArcs("t", nil, []Place{p})
			b.Mark(p, p)
		}, `petri: building "two-mistakes": petri: place p marked twice; petri: transition t has no input places`},
	} {
		b := NewBuilder(c.name)
		c.build(b)
		n, err := b.Build()
		if err == nil {
			t.Errorf("%s: built %v, want error %q", c.name, n, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error\n  %s\nwant\n  %s", c.name, err, c.want)
		}
	}
}
