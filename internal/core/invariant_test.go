package core

import (
	"fmt"
	"testing"

	"repro/internal/family"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/zdd"
)

// checkMarkingsWithinValid asserts m(p) ⊆ r for every place of every
// state the analysis interned (DESIGN.md D2a). SEnabled, tryMultiple and
// multiFire leave out the intersections with r that this makes no-ops.
func checkMarkingsWithinValid[F any](t *testing.T, n *petri.Net, alg Algebra[F]) {
	t.Helper()
	e, err := NewEngine[F](n, alg)
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := e.Analyze(Options{StoreGraph: true, MaxStates: diffMaxStates})
	if err != nil && err != ErrStateLimit {
		t.Fatal(err)
	}
	for id, s := range g.States {
		for p, f := range s.M {
			if !alg.Equal(alg.Intersect(f, s.R), f) {
				t.Fatalf("%s: state %d: m(%s) ⊄ r", n.Name(), id, n.PlaceName(petri.Place(p)))
			}
		}
	}
}

// TestMarkingsWithinValidSets runs the check over the TestPinnedTable1
// rows and the TestDifferentialFamilyVsZDD corpus, for both algebras.
func TestMarkingsWithinValidSets(t *testing.T) {
	const familyPeakMax = 5000 // as in TestPinnedTable1
	type instance struct {
		net      *petri.Net
		explicit bool // small enough for the explicit algebra
	}
	var corpus []instance
	for _, row := range pinnedTable1() {
		if testing.Short() && row.peakValid > 50_000 {
			continue
		}
		net, err := models.ByName(row.family, row.size)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, instance{net, row.peakValid <= familyPeakMax})
	}
	for _, cfg := range differentialConfigs() {
		corpus = append(corpus, instance{randnet.Generate(cfg), true})
	}
	for _, c := range corpus {
		net := c.net
		t.Run(fmt.Sprintf("%s/zdd", net.Name()), func(t *testing.T) {
			checkMarkingsWithinValid[zdd.Node](t, net, zdd.NewAlgebra(net.NumTrans()))
		})
		if c.explicit {
			t.Run(fmt.Sprintf("%s/family", net.Name()), func(t *testing.T) {
				checkMarkingsWithinValid[*family.Family](t, net, family.NewAlgebra(net.NumTrans()))
			})
		}
	}
}
