package structural

import (
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
)

// bfsOrder is TransitionOrder's definition, walked the plain way: each
// cluster breadth-first over Net.ConflictSet (ascending) from its
// smallest transition.
func bfsOrder(n *petri.Net) []petri.Trans {
	var order []petri.Trans
	seen := make([]bool, n.NumTrans())
	for _, c := range n.Clusters() {
		head := len(order)
		order = append(order, c[0])
		seen[c[0]] = true
		for ; head < len(order); head++ {
			for _, u := range n.ConflictSet(order[head]) {
				if !seen[u] {
					seen[u] = true
					order = append(order, u)
				}
			}
		}
	}
	return order
}

// TestTransitionOrder: the order is a permutation of the transitions,
// the same on every call, equal to the plain breadth-first walk, with
// each cluster on consecutive levels from its smallest transition, and
// it costs one allocation.
func TestTransitionOrder(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(5), models.Fig1(4), models.Fig2(3), models.Fig3(), models.Fig7(),
		models.ReadersWriters(4), models.ArbiterTree(4), models.Overtake(3),
	}
	for seed := int64(0); seed < 20; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	// t0's neighbours are met through a as t2 and through b as t1; the
	// walk visits them ascending.
	b := petri.NewBuilder("fork")
	pa, pb, pc := b.Place("a"), b.Place("b"), b.Place("c")
	b.Mark(pa, pb)
	b.TransArcs("t0", []petri.Place{pa, pb}, []petri.Place{pc})
	b.TransArcs("t1", []petri.Place{pb}, []petri.Place{pc})
	b.TransArcs("t2", []petri.Place{pa}, []petri.Place{pc})
	nets = append(nets, b.MustBuild())
	for _, n := range nets {
		order := TransitionOrder(n)
		if !slices.Equal(order, TransitionOrder(n)) {
			t.Errorf("%s: two calls disagree", n.Name())
		}
		sorted := slices.Clone(order)
		slices.Sort(sorted)
		for i, tr := range sorted {
			if tr != petri.Trans(i) {
				t.Fatalf("%s: %v is not a permutation of %d transitions", n.Name(), order, n.NumTrans())
			}
		}
		if want := bfsOrder(n); !slices.Equal(order, want) {
			t.Errorf("%s: order %v, want %v", n.Name(), order, want)
		}
		at := 0
		for _, c := range n.Clusters() {
			block := slices.Clone(order[at : at+len(c)])
			first := block[0]
			slices.Sort(block)
			if first != c[0] || !slices.Equal(block, c) {
				t.Errorf("%s: cluster %v not on levels %d..%d from its smallest: %v", n.Name(), c, at, at+len(c)-1, order)
			}
			at += len(c)
		}
		if allocs := testing.AllocsPerRun(10, func() { TransitionOrder(n) }); allocs > 1 {
			t.Errorf("%s: %v allocations, want 1", n.Name(), allocs)
		}
	}
}
