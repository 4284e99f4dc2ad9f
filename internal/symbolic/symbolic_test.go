package symbolic

import (
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/reach"
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
		orders := []Order{OrderInterleaved}
		// The sequential order makes the frame conditions of the transition
		// relation exponential in the number of untouched places (that is
		// the point of the ablation), so only exercise it on small nets.
		if net.NumPlaces() <= 14 {
			orders = append(orders, OrderSequential)
		}
		for _, ord := range orders {
			res, err := Analyze(net, Options{Order: ord})
			if err != nil {
				t.Fatalf("%s: %v", net.Name(), err)
			}
			if int(res.States) != full.States {
				t.Errorf("%s (order=%d): symbolic states=%v explicit=%d",
					net.Name(), ord, res.States, full.States)
			}
			if res.Deadlock != full.Deadlock {
				t.Errorf("%s (order=%d): symbolic deadlock=%v explicit=%v",
					net.Name(), ord, res.Deadlock, full.Deadlock)
			}
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

// TestOrderingAblation records that the interleaved order is no worse than
// the sequential one on a concurrency-heavy model.
func TestOrderingAblation(t *testing.T) {
	net := models.Fig1(6)
	inter, err := Analyze(net, Options{Order: OrderInterleaved})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Analyze(net, Options{Order: OrderSequential})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Fig1(8): interleaved peak=%d, sequential peak=%d", inter.PeakNodes, seq.PeakNodes)
	if inter.States != seq.States {
		t.Errorf("orders disagree on state count: %v vs %v", inter.States, seq.States)
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
		{"nsdp", 2, 18, 5, 40, 948},
		{"nsdp", 4, 322, 9, 132, 8_860},
		{"nsdp", 6, 5_778, 13, 224, 41_081},
		{"nsdp", 8, 103_682, 17, 316, 118_189},
		{"asat", 2, 36, 11, 144, 2_169},
		{"asat", 4, 768, 18, 2_823, 45_796},
		{"over", 2, 62, 9, 80, 2_884},
		{"over", 3, 488, 13, 210, 14_905},
		{"over", 4, 3_842, 17, 484, 65_876},
		{"over", 5, 30_248, 21, 1_046, 251_585},
		{"rw", 6, 65, 7, 330, 4_372},
		{"rw", 9, 513, 10, 2_576, 32_317},
		{"rw", 12, 4_097, 13, 20_502, 251_873},
		{"rw", 15, 32_769, 16, 163_868, 2_002_166},
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
