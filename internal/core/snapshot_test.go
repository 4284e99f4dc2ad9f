package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/family"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/stop"
	"repro/internal/zdd"
)

// resultEqual compares every Result field that a resumed run must
// reproduce bit for bit.
func resultEqual(a, b *Result) bool {
	return a.States == b.States && a.Arcs == b.Arcs &&
		a.MultiFirings == b.MultiFirings && a.SingleFirings == b.SingleFirings &&
		a.Deadlock == b.Deadlock && a.PeakValid == b.PeakValid &&
		a.Complete == b.Complete &&
		reflect.DeepEqual(a.DeadStates, b.DeadStates) &&
		reflect.DeepEqual(a.Witnesses, b.Witnesses)
}

// killResumeZDD stops a ZDD-backed analysis at DFS step `at`, then
// resumes on a FRESH engine (new manager) and returns the final Result.
// ok=false reports that the run finished before reaching step `at`.
func killResumeZDD(t *testing.T, n *petri.Net, opts Options, at int64) (*Result, bool) {
	t.Helper()
	var snap *Snapshot
	e, err := NewEngine[zdd.Node](n, zdd.NewAlgebra(n.NumTrans()))
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Ckpt = &stop.Hook[*Snapshot]{
		Poll: func(states int, steps int64) stop.Action {
			if steps == at {
				return stop.Suspend
			}
			return stop.Continue
		},
		Save: func(sn *Snapshot) error { snap = sn; return nil },
	}
	res, _, err := e.Analyze(o)
	if err == nil {
		return res, false // finished before the kill point
	}
	if !errors.Is(err, stop.ErrSuspended) {
		t.Fatalf("%s: kill at step %d: %v", n.Name(), at, err)
	}
	if snap == nil {
		t.Fatalf("%s: stop.Suspend without a saved snapshot", n.Name())
	}
	e2, err := NewEngine[zdd.Node](n, zdd.NewAlgebra(n.NumTrans()))
	if err != nil {
		t.Fatal(err)
	}
	o2 := opts
	o2.Resume = snap
	res2, _, err := e2.Analyze(o2)
	if err != nil {
		t.Fatalf("%s: resume from step %d: %v", n.Name(), at, err)
	}
	return res2, true
}

// TestEngineResumeBitIdentical kills the ZDD analysis at every DFS step
// boundary and requires the resumed run to reproduce the uninterrupted
// Result exactly.
func TestEngineResumeBitIdentical(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(4), models.Fig1(3), models.Fig7(), models.Overtake(2),
	}
	for _, n := range nets {
		e, err := NewEngine[zdd.Node](n, zdd.NewAlgebra(n.NumTrans()))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := e.Analyze(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for at := int64(0); ; at++ {
			got, killed := killResumeZDD(t, n, Options{}, at)
			if !killed {
				if at == 0 {
					t.Errorf("%s: run finished before the first boundary", n.Name())
				}
				break
			}
			if !resultEqual(want, got) {
				t.Errorf("%s: kill at step %d: resumed %+v != uninterrupted %+v", n.Name(), at, got, want)
			}
		}
	}
}

// TestEngineResumeExplicitAlgebra runs one kill-resume through the
// explicit family algebra to cover its SnapshotCodec end to end.
func TestEngineResumeExplicitAlgebra(t *testing.T) {
	n := models.Fig7()
	e, err := NewEngine[*family.Family](n, family.NewAlgebra(n.NumTrans()))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	e1, _ := NewEngine[*family.Family](n, family.NewAlgebra(n.NumTrans()))
	_, _, err = e1.Analyze(Options{Ckpt: &stop.Hook[*Snapshot]{
		Poll: func(states int, steps int64) stop.Action {
			if steps == 2 {
				return stop.Suspend
			}
			return stop.Continue
		},
		Save: func(sn *Snapshot) error { snap = sn; return nil },
	}})
	if !errors.Is(err, stop.ErrSuspended) {
		t.Fatalf("kill: %v", err)
	}
	e2, _ := NewEngine[*family.Family](n, family.NewAlgebra(n.NumTrans()))
	got, _, err := e2.Analyze(Options{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !resultEqual(want, got) {
		t.Errorf("resumed %+v != uninterrupted %+v", got, want)
	}
}

// TestEngineSnapshotValidation feeds structurally impossible snapshots
// to resume and requires typed rejections, never a silent run.
func TestEngineSnapshotValidation(t *testing.T) {
	n := models.Fig7()
	var snap *Snapshot
	e, _ := NewEngine[zdd.Node](n, zdd.NewAlgebra(n.NumTrans()))
	_, _, err := e.Analyze(Options{Ckpt: &stop.Hook[*Snapshot]{
		Poll: func(states int, steps int64) stop.Action {
			if steps == 1 {
				return stop.Suspend
			}
			return stop.Continue
		},
		Save: func(sn *Snapshot) error { snap = sn; return nil },
	}})
	if !errors.Is(err, stop.ErrSuspended) {
		t.Fatalf("kill: %v", err)
	}
	mut := []struct {
		name string
		mod  func(sn *Snapshot)
	}{
		{"places mismatch", func(sn *Snapshot) { sn.NumPlaces++ }},
		{"no states", func(sn *Snapshot) { sn.NumStates = 0 }},
		{"empty stack", func(sn *Snapshot) { sn.Frames = nil }},
		{"root frame missing", func(sn *Snapshot) { sn.Frames[0].ID = 1 }},
		{"next out of range", func(sn *Snapshot) { sn.Frames[0].Next = len(sn.Frames[0].Succs) + 1 }},
		{"negative arcs", func(sn *Snapshot) { sn.Arcs = -1 }},
		{"dead id out of range", func(sn *Snapshot) { sn.DeadStates = []int{sn.NumStates} }},
		{"truncated family blob", func(sn *Snapshot) { sn.FamilyBlob = sn.FamilyBlob[:len(sn.FamilyBlob)/2] }},
	}
	for _, m := range mut {
		bad := *snap
		bad.Frames = append([]FrameSnap(nil), snap.Frames...)
		m.mod(&bad)
		e2, _ := NewEngine[zdd.Node](n, zdd.NewAlgebra(n.NumTrans()))
		if _, _, err := e2.Analyze(Options{Resume: &bad}); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

// TestEngineCkptUnsupportedAlgebra checks the typed error for algebras
// without a SnapshotCodec.
func TestEngineCkptUnsupportedAlgebra(t *testing.T) {
	n := models.Fig7()
	e, err := NewEngine[*family.Family](n, family.NewAlgebra(n.NumTrans()))
	if err != nil {
		t.Fatal(err)
	}
	// The explicit algebra DOES support checkpointing; simulate an
	// unsupported one by checking validateCkptOptions + StoreGraph too.
	if _, _, err := e.Analyze(Options{StoreGraph: true, Ckpt: &stop.Hook[*Snapshot]{}}); err == nil {
		t.Error("StoreGraph+Ckpt accepted")
	}
	_ = fmt.Sprint(ErrCkptUnsupported) // keep the sentinel referenced
}
