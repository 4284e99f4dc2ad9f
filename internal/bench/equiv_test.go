package bench

import (
	"testing"

	"repro/internal/models"
	"repro/internal/reach"
)

// TestParallelReachMatchesSequentialTable1 is the cross-engine
// equivalence gate for the parallel explorer: on the Table 1 instances
// the Workers: 8 run must reproduce the Workers: 0 Result exactly —
// States, Arcs, Deadlocks in order, and the stored Graph. The two
// largest instances (≈1.6–1.9M states) are skipped to keep the race-
// enabled run of scripts/check.sh within budget; check.sh runs them full
// size with `gpoverify -only 'nsdp\(10\)|asat\(8\)' -engine exhaustive
// -workers 2` and compares the states against TABLE1.json.
func TestParallelReachMatchesSequentialTable1(t *testing.T) {
	const maxFull = 150_000 // states; excludes nsdp(10) and asat(8)
	for _, r := range Table1() {
		if r.PaperFull > maxFull {
			continue
		}
		if testing.Short() && r.PaperFull > 10_000 {
			continue
		}
		net, err := models.ByName(r.Family, r.Size)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := reach.Explore(net, reach.Options{StoreGraph: true})
		if err != nil {
			t.Fatalf("%s(%d) sequential: %v", r.Family, r.Size, err)
		}
		par, err := reach.Explore(net, reach.Options{StoreGraph: true, Workers: 8})
		if err != nil {
			t.Fatalf("%s(%d) workers=8: %v", r.Family, r.Size, err)
		}
		if par.States != seq.States || par.Arcs != seq.Arcs ||
			par.Deadlock != seq.Deadlock || par.Complete != seq.Complete {
			t.Errorf("%s(%d): parallel (states=%d arcs=%d dead=%v complete=%v) != sequential (states=%d arcs=%d dead=%v complete=%v)",
				r.Family, r.Size,
				par.States, par.Arcs, par.Deadlock, par.Complete,
				seq.States, seq.Arcs, seq.Deadlock, seq.Complete)
			continue
		}
		if len(par.Deadlocks) != len(seq.Deadlocks) {
			t.Errorf("%s(%d): %d deadlock markings != %d", r.Family, r.Size, len(par.Deadlocks), len(seq.Deadlocks))
			continue
		}
		for i := range seq.Deadlocks {
			if !seq.Deadlocks[i].Equal(par.Deadlocks[i]) {
				t.Errorf("%s(%d): deadlock %d differs", r.Family, r.Size, i)
				break
			}
		}
		for id := range seq.Graph.States {
			if !seq.Graph.States[id].Equal(par.Graph.States[id]) {
				t.Errorf("%s(%d): graph state %d differs", r.Family, r.Size, id)
				break
			}
			se, pe := seq.Graph.Edges[id], par.Graph.Edges[id]
			if len(se) != len(pe) {
				t.Errorf("%s(%d): state %d has %d edges, want %d", r.Family, r.Size, id, len(pe), len(se))
				break
			}
			same := true
			for i := range se {
				if se[i] != pe[i] {
					t.Errorf("%s(%d): state %d edge %d differs", r.Family, r.Size, id, i)
					same = false
					break
				}
			}
			if !same {
				break
			}
		}
	}
}
