package core

import (
	"os"
	"testing"

	"repro/internal/family"
	"repro/internal/pnio"
	"repro/internal/reach"
	"repro/internal/zdd"
)

// TestBlowupWitness pins the 4-place net of testdata/blowup-witness.pn,
// on which GPN states outnumber reachable markings: 4 markings, 9 GPN
// states under both family algebras. The surplus is in how histories are
// named (ROADMAP item 1(c)); only a change to that naming may lower the
// 9, and such a change edits this pin on purpose. Nothing else may move
// it either way.
func TestBlowupWitness(t *testing.T) {
	f, err := os.Open("testdata/blowup-witness.pn")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := pnio.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	full, err := reach.Explore(net, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.States != 4 {
		t.Errorf("%d reachable markings, want 4", full.States)
	}
	fr, _ := runGPN(t, net, family.NewAlgebra(net.NumTrans()))
	zr, _ := runGPN(t, net, zdd.NewAlgebra(net.NumTrans()))
	for _, r := range []struct {
		alg string
		res *Result
	}{{"family", fr}, {"zdd", zr}} {
		if r.res.States != 9 || !r.res.Complete {
			t.Errorf("%s: %d GPN states (complete %v), want 9", r.alg, r.res.States, r.res.Complete)
		}
	}
}
