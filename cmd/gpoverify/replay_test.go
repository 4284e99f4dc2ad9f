package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/models"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
	"repro/internal/verify"
)

// suspendRun executes a deadlock check that checkpoints and stops at
// the first boundary where stopAt holds, returning the ckpt file path
// and the flight-recorder trace of the suspended run.
func suspendRun(t *testing.T, net *petri.Net, eng verify.Engine, stopAt func(states int, boundary int64) bool) (string, *trace.Dump) {
	t.Helper()
	tracer := trace.New(trace.Options{})
	tracer.SetMeta("net", net.Name())
	names := make([]string, net.NumTrans())
	for tr := range names {
		names[tr] = net.TransName(petri.Trans(tr))
	}
	tracer.SetTransNames(names)

	var snap *verify.EngineSnapshot
	opts := verify.Options{
		Engine: eng,
		Trace:  tracer,
		Ckpt: &verify.Checkpointer{
			Poll: func(states int, boundary int64) stop.Action {
				if stopAt(states, boundary) {
					return stop.Suspend
				}
				return stop.Continue
			},
			Save: func(sn *verify.EngineSnapshot) error { snap = sn; return nil },
		},
	}
	rep, err := verify.CheckDeadlock(net, opts)
	if err != nil {
		t.Fatalf("suspend run: %v", err)
	}
	if !rep.Checkpointed || snap == nil {
		t.Fatalf("run did not suspend: %+v", rep)
	}
	path := filepath.Join(t.TempDir(), "replay-test.ckpt")
	f := &ckpt.File{Net: net, Check: "deadlock", Opts: opts, Snap: snap}
	if err := ckpt.Write(path, f); err != nil {
		t.Fatalf("write ckpt: %v", err)
	}
	return path, tracer.Dump()
}

// TestReplayBitIdentical pins the -replay contract for both snapshot
// families: re-executing the checkpointed prefix reproduces the stored
// container bit for bit and the suspended run's own flight-recorder
// trace matches the replay's event counts (-trace-ref).
func TestReplayBitIdentical(t *testing.T) {
	cases := []struct {
		eng    verify.Engine
		stopAt func(states int, boundary int64) bool
	}{
		// Exhaustive boundaries are BFS levels; stop once enough markings
		// are interned. GPO boundaries are DFS steps, and the whole
		// NSDP(6) run takes only a handful of generalized steps, so stop
		// on an early step coordinate.
		{verify.Exhaustive, func(states int, _ int64) bool { return states >= 500 }},
		{verify.GPO, func(_ int, boundary int64) bool { return boundary >= 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.eng.String(), func(t *testing.T) {
			net, err := models.ByName("nsdp", 6)
			if err != nil {
				t.Fatal(err)
			}
			path, refDump := suspendRun(t, net, tc.eng, tc.stopAt)

			ref := filepath.Join(t.TempDir(), "ref.trace.json")
			if err := trace.WriteFile(ref, refDump); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "replay.trace.json")
			if err := runReplay(path, ref, out); err != nil {
				t.Fatalf("runReplay: %v", err)
			}
			// The written replay trace must itself summarize to the same
			// counts as the reference — the gpotrace integration.
			d, err := trace.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			rs, ds := trace.Summarize(refDump, 0), trace.Summarize(d, 0)
			if rs.Events != ds.Events || rs.States != ds.States || rs.Fires != ds.Fires {
				t.Fatalf("replay trace counts drift: ref events=%d states=%d fires=%d, replay events=%d states=%d fires=%d",
					rs.Events, rs.States, rs.Fires, ds.Events, ds.States, ds.Fires)
			}
		})
	}
}

// TestReplayRejectsWrongRef: a reference trace from a different run
// must fail the event-count comparison, not pass silently.
func TestReplayRejectsWrongRef(t *testing.T) {
	net, err := models.ByName("nsdp", 6)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := suspendRun(t, net, verify.Exhaustive, func(states int, _ int64) bool { return states >= 500 })

	// Reference trace from a different prefix (smaller boundary).
	_, otherDump := suspendRun(t, net, verify.Exhaustive, func(states int, _ int64) bool { return states >= 100 })
	ref := filepath.Join(t.TempDir(), "wrong.trace.json")
	if err := trace.WriteFile(ref, otherDump); err != nil {
		t.Fatal(err)
	}
	err = runReplay(path, ref, "")
	if err == nil || !strings.Contains(err.Error(), "trace-ref") {
		t.Fatalf("want trace-ref mismatch error, got %v", err)
	}
}

// TestReplayRejectsCorrupt: a damaged checkpoint refuses to replay with
// the container's typed error, never a silent pass.
func TestReplayRejectsCorrupt(t *testing.T) {
	net, err := models.ByName("nsdp", 4)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := suspendRun(t, net, verify.Exhaustive, func(states int, _ int64) bool { return states >= 50 })
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runReplay(path, "", ""); err == nil {
		t.Fatal("corrupt checkpoint replayed without error")
	}
}
