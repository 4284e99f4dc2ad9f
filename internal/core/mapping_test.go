package core

import (
	"errors"
	"testing"

	"repro/internal/family"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/reach"
)

// mappingCapped is how many of TestMappingSoundness's random nets hit
// its GPN state cap: their GPN states outnumber their markings without
// bound in sight (ROADMAP item 1(c); testdata/blowup-witness.pn is the
// smallest such net). Only a fix of that blow-up may lower it.
const mappingCapped = 11

// cappedPrefix bounds how many GPN states of a capped run are checked:
// the first ones explored, as the partial graph holds them.
const cappedPrefix = 200

// TestMappingSoundness checks the central semantic property of the
// generalized analysis (Definition 3.4 and the consistency argument of
// Section 3.2): every classical marking in the mapping of every explored
// GPN state is reachable in the classical net. This is run over the
// benchmark models and a batch of random nets. A run that hits the state
// cap is checked on the first cappedPrefix states of its partial graph,
// and the capped runs are counted.
func TestMappingSoundness(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(3),
		models.Fig1(4), models.Fig2(3), models.Fig3(), models.Fig7(),
		models.ReadersWriters(3), models.ArbiterTree(2), models.Overtake(2),
	}
	for seed := int64(0); seed < 25; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	capped := 0
	for _, net := range nets {
		full, err := reach.Explore(net, reach.Options{StoreGraph: true})
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		reachable := make(map[string]bool)
		for _, m := range full.Graph.States {
			reachable[m.Key()] = true
		}

		e := explicitEngine(t, net)
		_, g, err := e.Analyze(Options{StoreGraph: true, MaxStates: 20000})
		states := g.States
		switch {
		case errors.Is(err, ErrStateLimit):
			capped++
			states = states[:min(len(states), cappedPrefix)]
		case err != nil:
			t.Fatalf("%s: %v", net.Name(), err)
		}
		for id, s := range states {
			for _, m := range e.Mapping(s, 200) {
				if !reachable[m.Key()] {
					t.Errorf("%s: GPN state %d maps to unreachable marking %s",
						net.Name(), id, m.String(net))
				}
			}
		}
	}
	if capped != mappingCapped {
		t.Errorf("%d of %d nets hit the GPN state cap, want %d", capped, len(nets), mappingCapped)
	}
}

// TestMappingCoversDeadlocks checks completeness on the deadlock side:
// with ExpandDead (the paper's default algorithm stops at the FIRST
// deadlock possibility per branch, which suffices for the yes/no question
// but not for enumeration), every classical deadlock marking appears in
// the dead valid sets of some explored GPN state.
func TestMappingCoversDeadlocks(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(3), models.Fig1(3), models.Fig2(3),
		models.Fig3(), models.Fig7(),
	}
	for seed := int64(0); seed < 25; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	for _, net := range nets {
		full, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !full.Deadlock {
			continue
		}
		e := explicitEngine(t, net)
		res, g, err := e.Analyze(Options{
			StoreGraph:   true,
			MaxStates:    20000,
			WitnessLimit: -1,
			ExpandDead:   true,
		})
		if err != nil {
			continue
		}
		covered := make(map[string]bool)
		for _, id := range res.DeadStates {
			s := g.States[id]
			dead := e.DeadSets(s)
			for _, v := range e.Alg.Enumerate(dead, 0) {
				covered[e.MarkingOf(s, v).Key()] = true
			}
		}
		for _, m := range full.Deadlocks {
			if !covered[m.Key()] {
				t.Errorf("%s: classical deadlock %s not covered by any dead GPN state",
					net.Name(), m.String(net))
			}
		}
	}
}

// TestStoredGraphConsistency checks the stored GPN graph invariants: arcs
// reference valid states; dead states are leaves unless ExpandDead.
func TestStoredGraphConsistency(t *testing.T) {
	net := models.NSDP(3)
	e := explicitEngine(t, net)
	res, g, err := e.Analyze(Options{StoreGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.States) != res.States {
		t.Fatalf("graph has %d states, result says %d", len(g.States), res.States)
	}
	dead := make(map[int]bool)
	for _, id := range res.DeadStates {
		dead[id] = true
	}
	for id, arcs := range g.Edges {
		if dead[id] && len(arcs) > 0 {
			t.Errorf("dead state %d has successors (ExpandDead off)", id)
		}
		for _, a := range arcs {
			if a.To < 0 || a.To >= len(g.States) {
				t.Errorf("arc to out-of-range state %d", a.To)
			}
			if len(a.Fired) == 0 {
				t.Error("arc with no fired transitions")
			}
		}
	}
}

var _ = family.Empty
