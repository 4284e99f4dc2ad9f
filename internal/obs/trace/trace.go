// Package trace is the exploration flight recorder: a fixed-capacity
// ring buffer of compact binary events emitted by the analysis engines
// while they run. Where internal/obs answers "how much" (end-of-run
// counters and histograms), trace answers "in what order and when" —
// which conflict clusters blew up |r|, when a ZDD table doubled, what
// the engine was doing when a deadline killed it.
//
// The design rules mirror internal/obs:
//
//   - Nil is a no-op everywhere. A nil *Tracer hands out nil *Track
//     values whose Emit methods return immediately, so a disabled
//     recorder costs one predictable branch per event and zero
//     allocations (pinned by TestDisabledTracerZeroAlloc).
//   - Recording only observes. Engines never consult the tracer, so
//     enabling it cannot change what they explore (TestPinnedTable1
//     stays bit-identical either way).
//   - Fixed memory. Each track is a preallocated ring of Cap events;
//     a run that outlives the ring keeps the most recent Cap events
//     and counts the drops, so an aborted ten-minute exploration still
//     yields its final moments.
//
// A Track is single-goroutine, like the engines themselves; concurrent
// recorders (the parallel reachability workers) each own a track, which
// doubles as the Perfetto thread lane the events land on. Export with
// WriteChrome (Perfetto / chrome://tracing trace.json) and read it back
// with ReadDump.
package trace

import (
	"sync"
	"time"
)

// Kind classifies one event. The Arg0/Arg1 meaning is per kind; see the
// String method for the wire names. A bundle encodes Kind as a number,
// so every kind keeps its value: 11, 12 and 14 to 18 are retired and
// never reused.
type Kind uint8

const (
	// KindNone is the zero Kind; never emitted.
	KindNone Kind = iota
	// KindPhaseBegin/KindPhaseEnd bracket an engine phase. Arg0 is the
	// interned name (Tracer.Intern).
	KindPhaseBegin
	KindPhaseEnd
	// KindState marks a state (or unfolding event) interned. Arg0 is the
	// state id, Arg1 a per-engine detail (|r| for GPO, 0 otherwise).
	KindState
	// KindFire marks a single transition explored. Arg0 is the
	// transition id, Arg1 the target state id (-1 if not yet assigned).
	KindFire
	// KindMultiFire marks a generalized multiple firing. Arg0 is the
	// number of transitions fired simultaneously, Arg1 the target state.
	KindMultiFire
	// KindStubborn marks a stubborn-set computation. Arg0 is the fired
	// set size, Arg1 the enabled-transition count it was reduced from.
	KindStubborn
	// KindConflict marks conflict-component resolution in the GPO
	// engine. Arg0 is the component count, Arg1 the single-enabled count.
	KindConflict
	// KindIter marks one symbolic image iteration. Arg0 is the
	// iteration number, Arg1 the BDD manager size after it.
	KindIter
	// KindCutoff marks an unfolding cutoff event. Arg0 is the event id.
	KindCutoff
	// KindZDDGrow marks an open-addressed ZDD table doubling. Arg0 is
	// the interned table name, Arg1 the new slot count.
	KindZDDGrow
)

const (
	// KindAbort is the terminal event of a cancelled run. Arg0 is the
	// interned reason (the context error text).
	KindAbort Kind = 13
	// KindJob marks a durable-job lifecycle step (slice begin/end,
	// checkpoint save, resume). Arg0 is the interned step name, Arg1 a
	// step detail (typically the state count at the boundary).
	KindJob Kind = 19
)

// kindMax is the last valid kind; parsers iterate KindPhaseBegin..kindMax.
const kindMax = KindJob

// kindNames holds each live kind's wire name; a retired value has none.
var kindNames = [kindMax + 1]string{
	KindPhaseBegin: "phase_begin",
	KindPhaseEnd:   "phase_end",
	KindState:      "state",
	KindFire:       "fire",
	KindMultiFire:  "multifire",
	KindStubborn:   "stubborn",
	KindConflict:   "conflict",
	KindIter:       "iter",
	KindCutoff:     "cutoff",
	KindZDDGrow:    "zdd_grow",
	KindAbort:      "abort",
	KindJob:        "job",
}

// String returns the kind's wire name ("none" for KindNone and the
// retired values).
func (k Kind) String() string {
	if k <= kindMax && kindNames[k] != "" {
		return kindNames[k]
	}
	return "none"
}

// kindByName inverts String for the parsers.
func kindByName(s string) Kind {
	for k := KindPhaseBegin; k <= kindMax; k++ {
		if kindNames[k] != "" && kindNames[k] == s {
			return k
		}
	}
	return KindNone
}

// Event is one recorded occurrence: a timestamp relative to the
// tracer's start, a kind, and two kind-specific arguments. Fixed-size
// on purpose — recording is a ring-slot store, never an allocation.
type Event struct {
	TS   int64 // nanoseconds since Tracer start
	Kind Kind
	Arg0 int64
	Arg1 int64
}

// DefaultCap is the per-track ring capacity used when Options.Cap is
// zero: 64Ki events (2 MiB per track), enough to hold every event of
// the paper's small instances and the final moments of anything larger.
const DefaultCap = 1 << 16

// Options configures a Tracer.
type Options struct {
	// Cap is the per-track ring capacity in events (default DefaultCap).
	Cap int
}

// Tracer owns the recording of one run: a set of tracks, an interned
// string table (phase, table and reason names), and free-form metadata
// (request id, engine, instance) that joins a trace to the access log
// entry of the request that produced it.
//
// Track creation, interning and metadata take a mutex — they happen per
// run or per phase, never per event. A nil *Tracer is valid: every
// method no-ops and NewTrack returns a nil (also valid) *Track.
type Tracer struct {
	base time.Time
	cap  int

	mu     sync.Mutex
	tracks []*Track
	strs   []string
	strIdx map[string]int64
	meta   map[string]string
	trans  []string
}

// New returns an empty tracer whose clock starts now.
func New(opts Options) *Tracer {
	c := opts.Cap
	if c <= 0 {
		c = DefaultCap
	}
	return &Tracer{
		base:   time.Now(),
		cap:    c,
		strIdx: make(map[string]int64),
		meta:   make(map[string]string),
	}
}

// NewTrack adds a track (a Perfetto thread lane) and returns it. Each
// single-goroutine engine opens one; the parallel explorer opens one
// per worker. Returns nil (a valid no-op track) on a nil tracer.
func (t *Tracer) NewTrack(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tk := &Track{
		name:   name,
		base:   t.base,
		events: make([]Event, t.cap),
	}
	t.tracks = append(t.tracks, tk)
	return tk
}

// Intern returns the id of s in the tracer's string table, adding it on
// first use. Cold-path only (phase boundaries, abort reasons). Returns
// 0 on a nil tracer; id 0 is reserved for the empty string.
func (t *Tracer) Intern(s string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.strs) == 0 {
		t.strs = append(t.strs, "")
		t.strIdx[""] = 0
	}
	if id, ok := t.strIdx[s]; ok {
		return id
	}
	id := int64(len(t.strs))
	t.strs = append(t.strs, s)
	t.strIdx[s] = id
	return id
}

// SetMeta attaches a metadata key/value pair (request id, engine name,
// instance) exported with the trace.
func (t *Tracer) SetMeta(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.meta[k] = v
}

// SetTransNames records the net's transition names so exporters and
// gpotrace can label KindFire events. Later calls win (one tracer, one
// net per run is the norm; -compare reuses the same net).
func (t *Tracer) SetTransNames(names []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trans = names
}

// Track is one event lane: a fixed-capacity ring written by exactly one
// goroutine at a time (sequential engine loops; one per parallel
// worker). A nil *Track is valid and all methods are no-ops — the
// disabled-recorder hot path is the nil check alone.
type Track struct {
	name   string
	base   time.Time
	events []Event
	n      uint64 // total emitted; head slot = n % cap
}

// Emit records one event. Zero allocations: a ring-slot store plus a
// monotonic clock read.
func (tk *Track) Emit(k Kind, arg0, arg1 int64) {
	if tk == nil {
		return
	}
	tk.events[tk.n%uint64(len(tk.events))] = Event{
		TS:   time.Since(tk.base).Nanoseconds(),
		Kind: k,
		Arg0: arg0,
		Arg1: arg1,
	}
	tk.n++
}

// The per-kind helpers keep call sites readable; all are Emit aliases.

// State records a state interned (detail: |r| for GPO, 0 otherwise).
func (tk *Track) State(id, detail int64) { tk.Emit(KindState, id, detail) }

// Fire records a transition explored toward state to (-1 = pending).
func (tk *Track) Fire(t, to int64) { tk.Emit(KindFire, t, to) }

// MultiFire records a generalized simultaneous firing of k transitions.
func (tk *Track) MultiFire(k, to int64) { tk.Emit(KindMultiFire, k, to) }

// Stubborn records a stubborn set of size fired out of enabled.
func (tk *Track) Stubborn(fired, enabled int64) { tk.Emit(KindStubborn, fired, enabled) }

// Conflict records conflict-component resolution: comps components over
// singles single-enabled transitions.
func (tk *Track) Conflict(comps, singles int64) { tk.Emit(KindConflict, comps, singles) }

// Iter records one symbolic image iteration at manager size nodes.
func (tk *Track) Iter(i, nodes int64) { tk.Emit(KindIter, i, nodes) }

// Cutoff records an unfolding cutoff event.
func (tk *Track) Cutoff(id int64) { tk.Emit(KindCutoff, id, 0) }

// ZDDGrow records a table doubling to slots (nameID from Intern).
func (tk *Track) ZDDGrow(nameID, slots int64) { tk.Emit(KindZDDGrow, nameID, slots) }

// Begin/End bracket a phase (nameID from Intern).
func (tk *Track) Begin(nameID int64) { tk.Emit(KindPhaseBegin, nameID, 0) }
func (tk *Track) End(nameID int64)   { tk.Emit(KindPhaseEnd, nameID, 0) }

// Abort records the terminal event of a cancelled run (reasonID from
// Intern).
func (tk *Track) Abort(reasonID int64) { tk.Emit(KindAbort, reasonID, 0) }

// Job records a durable-job lifecycle step (stepID from Intern).
func (tk *Track) Job(stepID, detail int64) { tk.Emit(KindJob, stepID, detail) }

// Len returns the number of events currently held (≤ cap).
func (tk *Track) Len() int {
	if tk == nil {
		return 0
	}
	if tk.n < uint64(len(tk.events)) {
		return int(tk.n)
	}
	return len(tk.events)
}

// Dropped returns how many events the ring overwrote.
func (tk *Track) Dropped() uint64 {
	if tk == nil {
		return 0
	}
	if tk.n <= uint64(len(tk.events)) {
		return 0
	}
	return tk.n - uint64(len(tk.events))
}

// snapshot returns the held events oldest-first. Called by the
// exporters after the run (writers are quiesced).
func (tk *Track) snapshot() []Event {
	if tk == nil || tk.n == 0 {
		return nil
	}
	c := uint64(len(tk.events))
	out := make([]Event, 0, tk.Len())
	if tk.n <= c {
		return append(out, tk.events[:tk.n]...)
	}
	head := tk.n % c
	out = append(out, tk.events[head:]...)
	return append(out, tk.events[:head]...)
}

// Meta returns a copy of the tracer's metadata (nil-safe).
func (t *Tracer) Meta() map[string]string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]string, len(t.meta))
	for k, v := range t.meta {
		m[k] = v
	}
	return m
}

// lookup resolves an interned id ("" when out of range).
func (t *Tracer) lookup(id int64) string {
	if t == nil || id < 0 || id >= int64(len(t.strs)) {
		return ""
	}
	return t.strs[id]
}
