package symbolic

import (
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
)

// TestMatchesExplicit cross-validates the symbolic engine against
// exhaustive explicit reachability on every model: the reachable state
// count and the deadlock verdict must agree exactly.
func TestMatchesExplicit(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(3), models.NSDP(4),
		models.Fig1(3), models.Fig1(6),
		models.Fig2(2), models.Fig2(4),
		models.Fig3(), models.Fig5(), models.Fig7(),
		models.ReadersWriters(3), models.ReadersWriters(5),
		models.ArbiterTree(2), models.ArbiterTree(4),
		models.Overtake(2), models.Overtake(3),
	}
	for _, net := range nets {
		full, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		res, err := Analyze(net, Options{})
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		if int(res.States) != full.States {
			t.Errorf("%s: symbolic states=%v explicit=%d", net.Name(), res.States, full.States)
		}
		if res.Deadlock != full.Deadlock {
			t.Errorf("%s: symbolic deadlock=%v explicit=%v", net.Name(), res.Deadlock, full.Deadlock)
		}
	}
}

// TestWitnessIsRealDeadlock checks the extracted witness marking against
// the explicit deadlock set.
func TestWitnessIsRealDeadlock(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		net := models.NSDP(n)
		full, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deadlock {
			t.Fatalf("NSDP(%d): deadlock missed", n)
		}
		found := false
		for _, m := range full.Deadlocks {
			if m.Equal(res.Witness) {
				found = true
			}
		}
		if !found {
			t.Errorf("NSDP(%d): witness %s is not a real deadlock",
				n, res.Witness.String(net))
		}
	}
}

// TestPeakGrowsWithNSDP records peak BDD sizes (the Table 1 statistic) and
// checks they grow with problem size, as in the paper's SMV column.
func TestPeakGrowsWithNSDP(t *testing.T) {
	prev := 0
	for _, n := range []int{2, 4, 6} {
		res, err := Analyze(models.NSDP(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakNodes <= prev {
			t.Errorf("NSDP(%d): peak %d did not grow past %d", n, res.PeakNodes, prev)
		}
		prev = res.PeakNodes
		t.Logf("NSDP(%d): states=%v peak=%d final=%d iters=%d",
			n, res.States, res.PeakNodes, res.FinalNodes, res.Iterations)
	}
}

// TestNodeLimit checks the guard path.
func TestNodeLimit(t *testing.T) {
	_, err := Analyze(models.NSDP(6), Options{MaxNodes: 100})
	if err != ErrNodeLimit {
		t.Errorf("got %v, want ErrNodeLimit", err)
	}
}

// TestPinnedBDDPeaks pins the symbolic column of the paper's Table 1
// (EXPERIMENTS.md E1–E4) as exact counts. States, Iterations and
// FinalNodes are properties of the net and the variable order; PeakNodes
// is every node the manager ever created, so it moves with the order in
// which conjunctions are built and with nothing else — not with the
// computed cache's size (bdd's TestBDDCacheLossIsInvisible).
func TestPinnedBDDPeaks(t *testing.T) {
	for _, row := range []struct {
		family                        string
		size                          int
		states                        float64
		iterations, finalNodes, peakN int
	}{
		{"nsdp", 2, 18, 5, 40, 338},
		{"nsdp", 4, 322, 9, 132, 3_892},
		{"nsdp", 6, 5_778, 13, 224, 18_701},
		{"nsdp", 8, 103_682, 17, 316, 54_388},
		{"asat", 2, 36, 11, 144, 752},
		{"asat", 4, 768, 18, 2_823, 20_661},
		{"over", 2, 62, 9, 80, 1_252},
		{"over", 3, 488, 13, 210, 7_094},
		{"over", 4, 3_842, 17, 484, 31_437},
		{"over", 5, 30_248, 21, 1_046, 117_883},
		{"rw", 6, 65, 7, 330, 1_917},
		{"rw", 9, 513, 10, 2_576, 15_667},
		{"rw", 12, 4_097, 13, 20_502, 125_200},
		{"rw", 15, 32_769, 16, 163_868, 1_000_106},
	} {
		if testing.Short() && row.peakN > 1_000_000 {
			continue
		}
		net, err := models.ByName(row.family, row.size)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(net, Options{})
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		if res.States != row.states || res.Iterations != row.iterations ||
			res.FinalNodes != row.finalNodes || res.PeakNodes != row.peakN {
			t.Errorf("%s(%d): states %v, iterations %d, final %d, peak %d; want %v, %d, %d, %d",
				row.family, row.size, res.States, res.Iterations, res.FinalNodes, res.PeakNodes,
				row.states, row.iterations, row.finalNodes, row.peakN)
		}
	}
}

// reachableSample returns up to limit reachable markings of n in
// breadth-first order.
func reachableSample(n *petri.Net, limit int) []petri.Marking {
	m0 := n.InitialMarking()
	seen := map[string]bool{m0.Key(): true}
	out := []petri.Marking{m0}
	var en []petri.Trans
	for i := 0; i < len(out) && len(out) < limit; i++ {
		en = n.AppendEnabled(en[:0], out[i])
		for _, t := range en {
			next, _ := n.Fire(out[i], t)
			if k := next.Key(); !seen[k] && len(out) < limit {
				seen[k] = true
				out = append(out, next)
			}
		}
	}
	return out
}

// minterm returns the BDD of the one marking mk, place p being variable p.
func minterm(m *bdd.Manager, n *petri.Net, mk petri.Marking) bdd.Node {
	f := bdd.True
	for p := petri.Place(n.NumPlaces() - 1); p >= 0; p-- {
		if mk.Has(p) {
			f = m.And(m.Var(int(p)), f)
		} else {
			f = m.And(m.NVar(int(p)), f)
		}
	}
	return f
}

// TestFireMatchesExplicit checks the image step against explicit firing:
// for a random set S of reachable markings, Fire(S, t) must be the set of
// markings FireInto makes of the members of S that enable t, for every
// transition, and Diff must be f ∧ ¬g on the same diagrams. The nets are
// every Table 1 net and reduced net of at most 24 places and 25 random
// nets of the default shape.
func TestFireMatchesExplicit(t *testing.T) {
	var nets []*petri.Net
	for _, r := range []struct {
		family string
		sizes  []int
	}{{"nsdp", []int{2, 4, 6, 8, 10}}, {"asat", []int{2, 4, 8}}, {"over", []int{2, 3, 4, 5}}, {"rw", []int{6, 9, 12, 15}}} {
		for _, size := range r.sizes {
			net, err := models.ByName(r.family, size)
			if err != nil {
				t.Fatal(err)
			}
			cert, err := reduce.Run(net, reduce.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []*petri.Net{net, cert.Net()} {
				if n.NumPlaces() <= 24 {
					nets = append(nets, n)
				}
			}
		}
	}
	for seed := int64(1); seed <= 25; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, n := range nets {
		m := bdd.NewManager(n.NumPlaces())
		trans := register(n, m)
		var set []petri.Marking
		s := bdd.False
		for _, mk := range reachableSample(n, 2000) {
			if rng.Intn(2) == 0 {
				set = append(set, mk)
				s = m.Or(s, minterm(m, n, mk))
			}
		}
		next := n.EmptyMarking()
		for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
			want := bdd.False
			for _, mk := range set {
				if n.Enabled(mk, tr) {
					n.FireInto(next, mk, tr)
					want = m.Or(want, minterm(m, n, next))
					checked++
				}
			}
			got := m.Fire(s, trans[tr])
			if got != want {
				t.Fatalf("%s: Fire(S, %s) has %v markings, explicit firing %v",
					n.Name(), n.TransName(tr), m.SatCount(got), m.SatCount(want))
			}
			if m.Diff(s, got) != m.And(s, m.Not(got)) || m.Diff(got, s) != m.And(got, m.Not(s)) {
				t.Fatalf("%s: Diff differs from f ∧ ¬g at %s", n.Name(), n.TransName(tr))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no set member enabled any transition")
	}
	t.Logf("%d nets, %d firings", len(nets), checked)
}
