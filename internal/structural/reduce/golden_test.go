package reduce_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/structural/reduce"
	"repro/internal/verify"
)

// goldenNet is one entry of the golden corpus.
type goldenNet struct {
	name    string
	net     *petri.Net
	protect []petri.Place
}

// handNets are three nets for the rules no Table 1 family and no default
// random net exercises: dead-transition pruning and empty-siphon places
// (with and without a protected siphon place), and a sink place implied
// by an invariant whose reconstruction refers to a place agglomerated
// after it.
func handNets() []goldenNet {
	// {s1, s2} is an unmarked cycle — a siphon that never gains a token —
	// and t4 consumes from it beside the live cycle a ⇄ b.
	siphon := func() *petri.Net {
		b := petri.NewBuilder("hand-siphon")
		a, bb, s1, s2 := b.Place("a"), b.Place("b"), b.Place("s1"), b.Place("s2")
		b.TransArcs("t0", []petri.Place{a}, []petri.Place{bb})
		b.TransArcs("t1", []petri.Place{bb}, []petri.Place{a})
		b.TransArcs("t2", []petri.Place{s1}, []petri.Place{s2})
		b.TransArcs("t3", []petri.Place{s2}, []petri.Place{s1})
		b.TransArcs("t4", []petri.Place{a, s1}, []petri.Place{bb})
		b.Mark(a)
		return b.MustBuild()
	}
	// a → m → p with p a sink covered by a + m + p = 1, a constant place
	// k self-looping on t2, and the chain x → y → z → x.
	sink := func() *petri.Net {
		b := petri.NewBuilder("hand-sink")
		a, m, p := b.Place("a"), b.Place("m"), b.Place("p")
		x, y, z, k := b.Place("x"), b.Place("y"), b.Place("z"), b.Place("k")
		b.TransArcs("t0", []petri.Place{a}, []petri.Place{m})
		b.TransArcs("t1", []petri.Place{m}, []petri.Place{p})
		b.TransArcs("t2", []petri.Place{x, k}, []petri.Place{y, k})
		b.TransArcs("t3", []petri.Place{y}, []petri.Place{z})
		b.TransArcs("t4", []petri.Place{z}, []petri.Place{x})
		b.Mark(a, x, k)
		return b.MustBuild()
	}
	return []goldenNet{
		{name: "hand/siphon", net: siphon()},
		{name: "hand/siphon-protected", net: siphon(), protect: []petri.Place{2}},
		{name: "hand/sink", net: sink()},
	}
}

// goldenCorpus is the Table 1 / benchmark model nets, forty default
// random nets and the hand-written nets, each once as given and once
// with Protect set: two in-range places and one out-of-range entry,
// which Run ignores.
func goldenCorpus(t *testing.T) []goldenNet {
	var base []goldenNet
	for _, fam := range []struct {
		name  string
		sizes []int
	}{
		{"nsdp", []int{2, 4, 6, 8, 40}},
		{"asat", []int{2, 4, 8, 32}},
		{"over", []int{2, 3, 4, 5, 8}},
		{"rw", []int{6, 9, 12, 15, 30}},
		{"fig2", []int{6, 40}},
	} {
		for _, size := range fam.sizes {
			net, err := models.ByName(fam.name, size)
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, goldenNet{name: fmt.Sprintf("%s(%d)", fam.name, size), net: net})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		base = append(base, goldenNet{name: fmt.Sprintf("rand(%d)", seed), net: randnet.Generate(randnet.Default(seed))})
	}
	base = append(base, handNets()...)
	out := base
	for _, g := range base {
		np := g.net.NumPlaces()
		g.name += "+protect"
		g.protect = append(append([]petri.Place(nil), g.protect...),
			1, petri.Place(np/2), petri.Place(np+7))
		out = append(out, g)
	}
	return out
}

// goldenLine renders everything the certificate promises about one
// reduction: the reduced net (as the digest of its canonical encoding),
// the counts, and the reduced initial marking expanded back.
func goldenLine(cert *reduce.Certificate) string {
	var rules []string
	counts := cert.Rules()
	for _, name := range reduce.RuleNames {
		if n := counts[name]; n > 0 {
			rules = append(rules, fmt.Sprintf("%s:%d", name, n))
		}
	}
	return fmt.Sprintf("%x rounds=%d places=-%d trans=-%d rules=%s m0=%x",
		sha256.Sum256(verify.AppendNetKey(nil, cert.Net())),
		cert.Rounds(), cert.PlacesRemoved(), cert.TransRemoved(),
		strings.Join(rules, ","),
		[]uint64(cert.ExpandMarking(cert.Net().InitialMarking())))
}

// TestReducedNetGolden pins the reduced net, byte for byte, on a corpus
// that makes every rule fire. The reduced net is content-addressed
// (cached run identities, the benchmark's expected +reduce counts), so
// the order in which rules apply is part of the contract: a change to
// the reducer that moves a constant below has changed its output.
func TestReducedNetGolden(t *testing.T) {
	fired := make(map[string]int)
	seen := make(map[string]bool)
	for _, g := range goldenCorpus(t) {
		cert, err := reduce.Run(g.net, reduce.Options{Protect: g.protect})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for name, n := range cert.Rules() {
			fired[name] += n
		}
		seen[g.name] = true
		if got := goldenLine(cert); got != golden[g.name] {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, golden[g.name])
		}
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("golden entry %s is not in the corpus", name)
		}
	}
	for _, name := range reduce.RuleNames {
		if fired[name] == 0 {
			t.Errorf("rule %s never fires on the golden corpus: its pins pass vacuously", name)
		}
	}
}
