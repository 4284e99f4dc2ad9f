package main

// Deterministic checkpoint replay (-replay): re-execute the prefix a
// ckpt/v3 file describes — same net, same check, same result-determining
// options, stopping at the same engine boundary — and prove the run is
// reproducible three ways:
//
//  1. the re-executed prefix's snapshot must re-encode bit-identically
//     to the stored checkpoint (same container bytes, same digest);
//  2. two independent re-executions under fresh flight recorders must
//     emit the same event stream (modulo timestamps), so the trace is a
//     faithful record and not an artifact of scheduling;
//  3. with -trace-ref, the replay's event counts must match a reference
//     trace recorded when the original run suspended at this checkpoint
//     (gpoverify -trace, or the dump gpod writes on abort).
//
// Replay runs sequentially (Workers 0); snapshots are canonical at
// level boundaries regardless of worker count, so a checkpoint from a
// parallel run replays bit-identically on one worker.

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
	"repro/internal/verify"
)

// runReplay drives one -replay invocation. traceOut, when non-empty,
// receives the first re-execution's trace for gpotrace/Perfetto.
func runReplay(path, traceRef, traceOut string) error {
	f, err := ckpt.Read(path)
	if err != nil {
		return err
	}
	fmt.Printf("replay %s: run %s\n", path, f.Key().RunID())
	fmt.Printf("  net %s (%d places, %d transitions), check %s, engine %s\n",
		f.Net.Name(), f.Net.NumPlaces(), f.Net.NumTrans(), f.Check, f.Opts.Engine)
	fmt.Printf("  checkpoint: boundary %d, %d states\n", f.Boundary(), f.States())

	snap1, dump1, err := replayPrefix(f)
	if err != nil {
		return err
	}
	_, dump2, err := replayPrefix(f)
	if err != nil {
		return err
	}
	fmt.Printf("  prefix re-executed: %d states at boundary %d\n", snap1.States(), snap1.Boundary())

	// 1. Snapshot bit-identity: the reproduced snapshot, re-encoded in
	// the same container, must match the stored one byte for byte.
	want, err := ckpt.Encode(f)
	if err != nil {
		return err
	}
	g := *f
	g.Snap = snap1
	got, err := ckpt.Encode(&g)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replay: prefix snapshot differs from checkpoint (%d vs %d container bytes, sha256 %x vs %x)",
			len(got), len(want), sha256.Sum256(got), sha256.Sum256(want))
	}
	sum := sha256.Sum256(want)
	fmt.Printf("  snapshot: bit-identical to checkpoint (%d container bytes, sha256 %x)\n",
		len(want), sum[:8])

	// 2. Event-stream determinism across independent re-executions.
	n, err := sameEventStream(dump1, dump2)
	if err != nil {
		return fmt.Errorf("replay: re-executions diverge: %w", err)
	}
	fmt.Printf("  event stream: deterministic across 2 re-executions (%d events)\n", n)

	// 3. Event counts against the reference flight-recorder trace.
	if traceRef != "" {
		ref, err := trace.ReadFile(traceRef)
		if err != nil {
			return err
		}
		rs, ds := trace.Summarize(ref, 0), trace.Summarize(dump1, 0)
		if rs.Events != ds.Events || rs.States != ds.States || rs.Fires != ds.Fires || rs.MultiFires != ds.MultiFires {
			return fmt.Errorf("replay: trace-ref %s disagrees: ref events=%d states=%d fires=%d multifires=%d, replay events=%d states=%d fires=%d multifires=%d",
				traceRef, rs.Events, rs.States, rs.Fires, rs.MultiFires,
				ds.Events, ds.States, ds.Fires, ds.MultiFires)
		}
		fmt.Printf("  trace-ref: event counts match (%d events, %d states, %d fires)\n",
			ds.Events, ds.States, ds.Fires)
	}
	if traceOut != "" {
		if err := trace.WriteFile(traceOut, dump1); err != nil {
			return err
		}
	}
	fmt.Println("replay: OK")
	return nil
}

// replayPrefix re-executes the checkpointed prefix once under a fresh
// flight recorder, stopping at the stored boundary, and returns the
// snapshot taken there plus the trace.
func replayPrefix(f *ckpt.File) (*verify.EngineSnapshot, *trace.Dump, error) {
	tracer := trace.New(trace.Options{})
	tracer.SetMeta("net", f.Net.Name())
	names := make([]string, f.Net.NumTrans())
	for t := range names {
		names[t] = f.Net.TransName(petri.Trans(t))
	}
	tracer.SetTransNames(names)

	target := f.Boundary()
	var snap *verify.EngineSnapshot
	opts := f.Opts
	opts.Trace = tracer
	opts.Ckpt = &verify.Checkpointer{
		Poll: func(states int, boundary int64) stop.Action {
			if boundary >= target {
				return stop.Suspend
			}
			return stop.Continue
		},
		Save: func(sn *verify.EngineSnapshot) error {
			snap = sn
			return nil
		},
	}
	var rep *verify.Report
	var err error
	if f.Check == "safety" {
		rep, err = verify.CheckSafety(f.Net, f.Bad, opts)
	} else {
		rep, err = verify.CheckDeadlock(f.Net, opts)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("replay: prefix re-execution: %w", err)
	}
	if snap == nil || !rep.Checkpointed {
		return nil, nil, fmt.Errorf("replay: run finished (%d states) before reaching boundary %d — checkpoint is not a prefix of this build's exploration", rep.States, target)
	}
	return snap, tracer.Dump(), nil
}

// sameEventStream compares two dumps modulo timestamps: same string
// tables, same tracks, and per track the same (kind, arg0, arg1)
// sequence. Returns the total event count on success.
func sameEventStream(a, b *trace.Dump) (int, error) {
	if len(a.Strings) != len(b.Strings) {
		return 0, fmt.Errorf("string tables differ (%d vs %d entries)", len(a.Strings), len(b.Strings))
	}
	for i := range a.Strings {
		if a.Strings[i] != b.Strings[i] {
			return 0, fmt.Errorf("string table entry %d differs: %q vs %q", i, a.Strings[i], b.Strings[i])
		}
	}
	if len(a.Tracks) != len(b.Tracks) {
		return 0, fmt.Errorf("track counts differ (%d vs %d)", len(a.Tracks), len(b.Tracks))
	}
	total := 0
	for i := range a.Tracks {
		ta, tb := a.Tracks[i], b.Tracks[i]
		if ta.Name != tb.Name {
			return 0, fmt.Errorf("track %d name differs: %q vs %q", i, ta.Name, tb.Name)
		}
		if ta.Dropped != tb.Dropped {
			return 0, fmt.Errorf("track %q drop counts differ (%d vs %d)", ta.Name, ta.Dropped, tb.Dropped)
		}
		if len(ta.Events) != len(tb.Events) {
			return 0, fmt.Errorf("track %q event counts differ (%d vs %d)", ta.Name, len(ta.Events), len(tb.Events))
		}
		for j := range ta.Events {
			ea, eb := ta.Events[j], tb.Events[j]
			if ea.Kind != eb.Kind || ea.Arg0 != eb.Arg0 || ea.Arg1 != eb.Arg1 {
				return 0, fmt.Errorf("track %q event %d differs: %s(%d,%d) vs %s(%d,%d)",
					ta.Name, j, ea.Kind, ea.Arg0, ea.Arg1, eb.Kind, eb.Arg0, eb.Arg1)
			}
		}
		total += len(ta.Events)
	}
	return total, nil
}
