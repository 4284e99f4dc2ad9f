package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestNilSafety drives every method on nil receivers: a disabled
// recorder must be inert, not a panic.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tk := tr.NewTrack("x")
	if tk != nil {
		t.Fatalf("nil tracer produced non-nil track")
	}
	if id := tr.Intern("phase"); id != 0 {
		t.Fatalf("nil Intern = %d, want 0", id)
	}
	tr.SetMeta("k", "v")
	tr.SetTransNames([]string{"a"})
	if m := tr.Meta(); m != nil {
		t.Fatalf("nil Meta = %v, want nil", m)
	}
	if d := tr.Dump(); d != nil {
		t.Fatalf("nil Dump = %v, want nil", d)
	}
	tk.Emit(KindState, 1, 2)
	tk.State(1, 0)
	tk.Fire(1, 2)
	tk.MultiFire(3, 4)
	tk.Stubborn(1, 5)
	tk.Conflict(2, 3)
	tk.Iter(1, 10)
	tk.Cutoff(7)
	tk.ZDDGrow(0, 128)
	tk.Begin(0)
	tk.End(0)
	tk.Abort(0)
	if tk.Len() != 0 || tk.Dropped() != 0 {
		t.Fatalf("nil track Len/Dropped non-zero")
	}
}

// TestDisabledTracerZeroAlloc pins the disabled cost: emitting on a nil
// track must not allocate. This is the contract that lets every engine
// hot loop call the tracer unconditionally.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tk *Track
	allocs := testing.AllocsPerRun(1000, func() {
		tk.State(1, 0)
		tk.Fire(2, 3)
		tk.Emit(KindConflict, 4, 5)
	})
	if allocs != 0 {
		t.Fatalf("nil track emits allocated %v/op, want 0", allocs)
	}
}

// TestEnabledEmitZeroAlloc pins the enabled steady-state cost: ring
// stores, no allocations.
func TestEnabledEmitZeroAlloc(t *testing.T) {
	tr := New(Options{Cap: 1 << 10})
	tk := tr.NewTrack("main")
	allocs := testing.AllocsPerRun(1000, func() {
		tk.State(1, 0)
		tk.Fire(2, 3)
	})
	if allocs != 0 {
		t.Fatalf("enabled track emits allocated %v/op, want 0", allocs)
	}
}

// TestRingWrap checks the fixed-capacity semantics: the ring keeps the
// most recent Cap events oldest-first and counts the drops.
func TestRingWrap(t *testing.T) {
	tr := New(Options{Cap: 8})
	tk := tr.NewTrack("main")
	for i := 0; i < 20; i++ {
		tk.State(int64(i), 0)
	}
	if got := tk.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := tk.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := tk.snapshot()
	for i, ev := range evs {
		if want := int64(12 + i); ev.Arg0 != want {
			t.Fatalf("snapshot[%d].Arg0 = %d, want %d (oldest-first)", i, ev.Arg0, want)
		}
	}
}

// TestInternStable checks interning is idempotent and id 0 stays the
// empty string.
func TestInternStable(t *testing.T) {
	tr := New(Options{})
	a := tr.Intern("explore")
	b := tr.Intern("merge")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad intern ids %d, %d", a, b)
	}
	if again := tr.Intern("explore"); again != a {
		t.Fatalf("re-intern = %d, want %d", again, a)
	}
	if tr.lookup(0) != "" || tr.lookup(a) != "explore" {
		t.Fatalf("lookup mismatch")
	}
}

// TestKindNames checks String/kindByName are inverses over every named
// kind, and that a retired value names nothing: a bundle that carries
// one must not read back as a live kind.
func TestKindNames(t *testing.T) {
	for k := KindPhaseBegin; k <= kindMax; k++ {
		if k.String() == "none" {
			continue
		}
		if got := kindByName(k.String()); got != k {
			t.Fatalf("kindByName(%q) = %v, want %v", k.String(), got, k)
		}
	}
	for _, name := range []string{"bogus", "none", "", "cache_hit", "frame_send", "level"} {
		if kindByName(name) != KindNone {
			t.Fatalf("kindByName(%q) != KindNone", name)
		}
	}
}

// sampleDump builds a dump exercising every kind, two tracks, interned
// strings, metadata and transition names.
func sampleDump() *Dump {
	tr := New(Options{Cap: 64})
	tr.SetMeta("engine", "gpo")
	tr.SetMeta("request_id", "req-42")
	tr.SetTransNames([]string{"think0", "eat0", "put0"})
	explore := tr.Intern("explore")
	uniq := tr.Intern("unique")
	reason := tr.Intern("context deadline exceeded")

	main := tr.NewTrack("core")
	main.Begin(explore)
	main.State(0, 1)
	main.Fire(1, 1)
	main.State(1, 2)
	main.MultiFire(2, 2)
	main.State(2, 1)
	main.Stubborn(1, 3)
	main.Conflict(2, 4)
	main.Iter(1, 100)
	main.Cutoff(5)
	main.ZDDGrow(uniq, 2048)
	main.End(explore)
	main.Abort(reason)

	w1 := tr.NewTrack("worker-1")
	w1.State(3, 0)
	w1.Fire(0, 3)
	return tr.Dump()
}

func eventsEqual(t *testing.T, a, b *Dump, exactStrings bool) {
	t.Helper()
	if len(a.Tracks) != len(b.Tracks) {
		t.Fatalf("track count %d != %d", len(a.Tracks), len(b.Tracks))
	}
	for ti := range a.Tracks {
		at, bt := a.Tracks[ti], b.Tracks[ti]
		if at.Name != bt.Name {
			t.Fatalf("track %d name %q != %q", ti, at.Name, bt.Name)
		}
		if at.Dropped != bt.Dropped {
			t.Fatalf("track %q dropped %d != %d", at.Name, at.Dropped, bt.Dropped)
		}
		if len(at.Events) != len(bt.Events) {
			t.Fatalf("track %q event count %d != %d", at.Name, len(at.Events), len(bt.Events))
		}
		for i := range at.Events {
			ae, be := at.Events[i], bt.Events[i]
			if ae.Kind != be.Kind || ae.TS != be.TS {
				t.Fatalf("track %q event %d: %+v != %+v", at.Name, i, ae, be)
			}
			if ae.Arg1 != be.Arg1 {
				t.Fatalf("track %q event %d arg1: %+v != %+v", at.Name, i, ae, be)
			}
			if internedArg0(ae.Kind) {
				as, bs := a.lookup(ae.Arg0), b.lookup(be.Arg0)
				if as != bs {
					t.Fatalf("track %q event %d interned arg %q != %q", at.Name, i, as, bs)
				}
			} else if ae.Arg0 != be.Arg0 {
				t.Fatalf("track %q event %d arg0: %+v != %+v", at.Name, i, ae, be)
			}
		}
	}
	if exactStrings {
		if len(a.Strings) != len(b.Strings) {
			t.Fatalf("string table %v != %v", a.Strings, b.Strings)
		}
	}
	for k, v := range a.Meta {
		if b.Meta[k] != v {
			t.Fatalf("meta %q: %q != %q", k, v, b.Meta[k])
		}
	}
}

// TestChromeRoundTrip checks WriteChrome → ReadDump preserves the
// events semantically and that the output is well-formed Chrome trace
// JSON (object with a traceEvents array of ph/ts/pid/tid records).
func TestChromeRoundTrip(t *testing.T) {
	d := sampleDump()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, d); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}

	var shape struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &shape); err != nil {
		t.Fatalf("chrome output is not a JSON object: %v", err)
	}
	if len(shape.TraceEvents) == 0 {
		t.Fatalf("chrome output has no traceEvents")
	}
	for i, ev := range shape.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("traceEvents[%d] missing %q: %v", i, field, ev)
			}
		}
	}

	got, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDump(chrome): %v", err)
	}
	eventsEqual(t, d, got, false)
}

// TestWriteFileFormats checks WriteFile writes Chrome trace JSON
// whatever the extension, and ReadFile reads it back.
func TestWriteFileFormats(t *testing.T) {
	d := sampleDump()
	dir := t.TempDir()
	for _, name := range []string{"t.json", "t.jsonl"} {
		path := dir + "/" + name
		if err := WriteFile(path, d); err != nil {
			t.Fatalf("WriteFile(%s): %v", name, err)
		}
		if raw, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(raw, []byte(`{"traceEvents":`)) {
			t.Fatalf("WriteFile(%s) did not write Chrome trace JSON (err %v)", name, err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", name, err)
		}
		eventsEqual(t, d, got, false)
	}
}

// TestSummarize checks the event-only reconstruction: state and firing
// counts, top transitions by name, per-phase wall, and the abort tail.
func TestSummarize(t *testing.T) {
	d := sampleDump()
	s := Summarize(d, 2)
	if s.States != 4 {
		t.Fatalf("States = %d, want 4", s.States)
	}
	if s.Fires != 2 || s.MultiFires != 1 {
		t.Fatalf("Fires/MultiFires = %d/%d, want 2/1", s.Fires, s.MultiFires)
	}
	if !s.Aborted || s.AbortReason != "context deadline exceeded" {
		t.Fatalf("abort tail = %v %q", s.Aborted, s.AbortReason)
	}
	if len(s.Top) != 2 {
		t.Fatalf("Top = %v, want 2 rows", s.Top)
	}
	names := map[string]bool{}
	for _, tc := range s.Top {
		if tc.Count != 1 {
			t.Fatalf("Top count = %+v, want 1", tc)
		}
		names[tc.Name] = true
	}
	if !names["eat0"] || !names["think0"] {
		t.Fatalf("Top names = %v, want eat0 and think0", s.Top)
	}
	foundPhase := false
	for _, pw := range s.Phases {
		if pw.Name == "explore" && pw.Track == "core" && pw.Count == 1 {
			foundPhase = true
		}
	}
	if !foundPhase {
		t.Fatalf("explore phase missing from %v", s.Phases)
	}
	var out strings.Builder
	s.WriteText(&out)
	for _, want := range []string{"states: 4", "ABORTED", "eat0", "explore"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("WriteText missing %q in:\n%s", want, out.String())
		}
	}
}

// TestSummarizeLeavesDump checks Summarize reads its dump without
// reordering it: the tracks keep their recording order (not name
// order), and a second call returns an equal summary.
func TestSummarizeLeavesDump(t *testing.T) {
	tr := New(Options{Cap: 16})
	for _, name := range []string{"zdd", "core", "job"} {
		tr.NewTrack(name).State(0, 0)
	}
	d := tr.Dump()
	first := Summarize(d, 0)
	for i, want := range []string{"zdd", "core", "job"} {
		if d.Tracks[i].Name != want {
			t.Fatalf("after Summarize track %d is %q, want %q (recording order)", i, d.Tracks[i].Name, want)
		}
	}
	if again := Summarize(d, 0); !reflect.DeepEqual(first, again) {
		t.Fatalf("two summaries of one dump differ:\n%+v\n%+v", first, again)
	}
}

// TestSummarizeOpenPhase checks an aborted run's unclosed phase is
// still charged wall time up to the track's last event.
func TestSummarizeOpenPhase(t *testing.T) {
	tr := New(Options{Cap: 16})
	id := tr.Intern("explore")
	tk := tr.NewTrack("core")
	tk.Begin(id)
	tk.State(0, 0)
	tk.Abort(tr.Intern("canceled"))
	s := Summarize(tr.Dump(), 0)
	if len(s.Phases) != 1 || s.Phases[0].Name != "explore" {
		t.Fatalf("Phases = %v, want one open explore phase", s.Phases)
	}
	if s.Phases[0].WallNS < 0 {
		t.Fatalf("open phase wall negative: %v", s.Phases[0])
	}
}

// TestReadDumpRejectsGarbage checks the parser fails loudly on inputs
// that are neither format.
func TestReadDumpRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "not json", `{"foo": 1}`, `{"type":"meta"` /* truncated */} {
		if _, err := ReadDump(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadDump(%q) succeeded, want error", in)
		}
	}
}
