package verify

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/stop"
)

// reportEqual compares every Report field a resumed run must reproduce
// bit for bit (Elapsed is wall clock and excluded).
func reportEqual(a, b *Report) bool {
	return a.Net == b.Net && a.Engine == b.Engine && a.Deadlock == b.Deadlock &&
		reflect.DeepEqual(a.Witness, b.Witness) && a.States == b.States &&
		a.PeakBDD == b.PeakBDD && a.PeakSets == b.PeakSets &&
		a.Complete == b.Complete && a.Aborted == b.Aborted &&
		a.Checkpointed == b.Checkpointed &&
		a.PlacesRemoved == b.PlacesRemoved && a.TransRemoved == b.TransRemoved
}

// runCheck dispatches to CheckSafety when bad is non-nil.
func runCheck(n *petri.Net, bad []petri.Place, opts Options) (*Report, error) {
	if bad != nil {
		return CheckSafety(n, bad, opts)
	}
	return CheckDeadlock(n, opts)
}

// killAndResume stops a check at boundary `at`, then resumes it from
// the saved snapshot and returns the final Report. ok=false reports
// that the run finished before reaching that boundary.
func killAndResume(t *testing.T, n *petri.Net, bad []petri.Place, opts Options, at int64) (*Report, bool) {
	t.Helper()
	var snap *EngineSnapshot
	o := opts
	o.Ckpt = &Checkpointer{
		Poll: func(states int, boundary int64) stop.Action {
			if boundary == at {
				return stop.Suspend
			}
			return stop.Continue
		},
		Save: func(sn *EngineSnapshot) error { snap = sn; return nil },
	}
	rep, err := runCheck(n, bad, o)
	if err != nil {
		t.Fatalf("%s/%s: kill at boundary %d: %v", n.Name(), opts.Engine, at, err)
	}
	if !rep.Checkpointed {
		return rep, false // finished before the kill point
	}
	if snap == nil {
		t.Fatalf("%s/%s: Checkpointed report without a saved snapshot", n.Name(), opts.Engine)
	}
	if snap.Boundary() != at {
		t.Fatalf("%s/%s: snapshot boundary %d, stopped at %d", n.Name(), opts.Engine, snap.Boundary(), at)
	}
	o2 := opts
	o2.Resume = snap
	rep2, err := runCheck(n, bad, o2)
	if err != nil {
		t.Fatalf("%s/%s: resume from boundary %d: %v", n.Name(), opts.Engine, at, err)
	}
	return rep2, true
}

// TestResumeBitIdentical is the PR's soundness pin: for Table 1
// instances across the checkpoint-capable engines — exhaustive
// (sequential AND parallel) and both GPO representations, deadlock and
// safety checks — kill the run at EVERY checkpoint boundary, resume
// from the saved snapshot, and require the final Report to be
// bit-identical to the uninterrupted run's.
func TestResumeBitIdentical(t *testing.T) {
	nsdp := models.NSDP(4)
	eat0, _ := nsdp.PlaceByName("eat0")
	eat1, _ := nsdp.PlaceByName("eat1")
	rw := models.ReadersWriters(3)
	reading0, _ := rw.PlaceByName("reading0")
	writing, _ := rw.PlaceByName("writing")

	cases := []struct {
		label string
		net   *petri.Net
		bad   []petri.Place
		opts  Options
	}{
		{"exhaustive/deadlock/seq", nsdp, nil, Options{Engine: Exhaustive}},
		{"exhaustive/deadlock/par", nsdp, nil, Options{Engine: Exhaustive, Workers: 3}},
		{"exhaustive/safety/seq", rw, []petri.Place{reading0, writing}, Options{Engine: Exhaustive}},
		{"exhaustive/safety/par", rw, []petri.Place{reading0, writing}, Options{Engine: Exhaustive, Workers: 3}},
		{"exhaustive/deadlock/reduced", models.Overtake(2), nil, Options{Engine: Exhaustive, Reduce: true}},
		{"gpo/deadlock", models.NSDP(6), nil, Options{Engine: GPO}},
		{"gpo/safety", nsdp, []petri.Place{eat0, eat1}, Options{Engine: GPO}},
		{"gpo-explicit/deadlock", models.Fig7(), nil, Options{Engine: GPOExplicit}},
		{"gpo/deadlock/fig1", models.Fig1(4), nil, Options{Engine: GPO}},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			want, err := runCheck(tc.net, tc.bad, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			boundaries := 0
			for at := int64(0); ; at++ {
				got, killed := killAndResume(t, tc.net, tc.bad, tc.opts, at)
				if !killed {
					break
				}
				boundaries++
				if !reportEqual(want, got) {
					t.Errorf("kill at boundary %d: resumed %+v != uninterrupted %+v", at, got, want)
				}
			}
			if boundaries == 0 {
				t.Error("run finished before the first boundary; nothing was exercised")
			}
		})
	}
}

// TestCkptUnsupportedEngines pins the typed pre-flight rejection for
// engines and configurations without deterministic boundaries.
func TestCkptUnsupportedEngines(t *testing.T) {
	n := models.Fig7()
	ck := &Checkpointer{}
	for _, eng := range []Engine{PartialOrder, Symbolic, Unfolding} {
		if _, err := CheckDeadlock(n, Options{Engine: eng, Ckpt: ck}); !errors.Is(err, ErrCkptUnsupported) {
			t.Errorf("%s+Ckpt: err = %v, want ErrCkptUnsupported", eng, err)
		}
		if _, err := CheckDeadlock(n, Options{Engine: eng, Resume: &EngineSnapshot{}}); !errors.Is(err, ErrCkptUnsupported) {
			t.Errorf("%s+Resume: err = %v, want ErrCkptUnsupported", eng, err)
		}
	}
	// A resume snapshot must match the engine that will consume it.
	if _, err := CheckDeadlock(n, Options{Engine: GPO, Resume: &EngineSnapshot{}}); !errors.Is(err, ErrCkptUnsupported) {
		t.Errorf("GPO+empty snapshot: err = %v, want ErrCkptUnsupported", err)
	}
}

// TestCheckpointedReducedWitness pins that a suspended reduced run maps
// its witness back to the input net: a deadlock found before the stop is
// a genuine deadlock of the net the caller passed.
func TestCheckpointedReducedWitness(t *testing.T) {
	stopAt8 := &Checkpointer{Poll: func(states int, _ int64) stop.Action {
		if states >= 8 {
			return stop.Suspend
		}
		return stop.Continue
	}}
	for _, seed := range []int64{12, 21} {
		net := randnet.Generate(randnet.Default(seed))
		rep, err := CheckDeadlock(net, Options{Engine: GPO, Reduce: true, Ckpt: stopAt8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Checkpointed || rep.Witness == nil {
			t.Fatalf("seed %d: want a suspended run with a witness, got %+v", seed, rep)
		}
		if !net.IsDeadlock(rep.Witness) {
			t.Errorf("seed %d: witness %s is not a deadlock of the input net", seed, rep.Witness.String(net))
		}
	}
}
