package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// FormatVersion is the dump format version WriteChrome stamps. Version
// 1 (files without a version field) added the original kinds; version
// 2 added job (and cluster kinds, since retired). Parsers accept any
// version ≤ FormatVersion and refuse newer files with
// ErrVersionMismatch rather than silently dropping events they cannot
// name.
const FormatVersion = 2

// Typed refusal errors from ReadDump and ReadBundle. Callers match
// with errors.Is; all are wrapped with file context where available.
var (
	// ErrEmptyTrace means the input held no bytes (or only whitespace).
	ErrEmptyTrace = errors.New("trace: empty input")
	// ErrBadHeader means the Chrome JSON envelope was missing,
	// truncated, or unparseable (a JSONL dump is refused this way too).
	ErrBadHeader = errors.New("trace: bad or truncated header")
	// ErrVersionMismatch means the dump was written by a newer format
	// version than this reader understands.
	ErrVersionMismatch = errors.New("trace: unsupported format version")
	// ErrMixedVersions means a bundle's per-peer dumps disagree on the
	// format version, so a reader would silently misread some of them.
	ErrMixedVersions = errors.New("trace: mixed format versions in bundle")
)

// Dump is a tracer frozen for export: the metadata, string table and
// transition names plus every track's surviving events oldest-first.
// WriteChrome serializes a Dump as Chrome trace JSON and ReadDump
// reconstructs one. Inside a Bundle a Dump is plain JSON.
type Dump struct {
	Version int               `json:"v,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
	Strings []string          `json:"strings,omitempty"`
	Trans   []string          `json:"trans,omitempty"`
	Tracks  []DumpTrack       `json:"tracks"`
}

// DumpTrack is one exported event lane.
type DumpTrack struct {
	Name    string  `json:"name"`
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Dump freezes the tracer's current contents. Safe to call once the
// engines that write its tracks have returned; a nil tracer dumps nil.
func (t *Tracer) Dump() *Dump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &Dump{
		Version: FormatVersion,
		Meta:    make(map[string]string, len(t.meta)),
		Strings: append([]string(nil), t.strs...),
		Trans:   append([]string(nil), t.trans...),
	}
	for k, v := range t.meta {
		d.Meta[k] = v
	}
	for _, tk := range t.tracks {
		d.Tracks = append(d.Tracks, DumpTrack{
			Name:    tk.name,
			Dropped: tk.Dropped(),
			Events:  tk.snapshot(),
		})
	}
	return d
}

// lookup resolves an interned id in the dump ("" when out of range).
func (d *Dump) lookup(id int64) string {
	if id < 0 || id >= int64(len(d.Strings)) {
		return ""
	}
	return d.Strings[id]
}

// intern adds s to the dump's string table (used when reconstructing a
// dump from a parsed file).
func (d *Dump) intern(s string) int64 {
	if len(d.Strings) == 0 {
		d.Strings = append(d.Strings, "")
	}
	for i, have := range d.Strings {
		if have == s {
			return int64(i)
		}
	}
	d.Strings = append(d.Strings, s)
	return int64(len(d.Strings)) - 1
}

// transName labels transition id for display ("t<id>" when unnamed).
func (d *Dump) transName(id int64) string {
	if id >= 0 && id < int64(len(d.Trans)) && d.Trans[id] != "" {
		return d.Trans[id]
	}
	return fmt.Sprintf("t%d", id)
}

// internedArg0 reports whether kind k's Arg0 is a string-table id, so
// exporters resolve it and parsers re-intern it.
func internedArg0(k Kind) bool {
	switch k {
	case KindPhaseBegin, KindPhaseEnd, KindZDDGrow, KindAbort, KindJob:
		return true
	}
	return false
}

// chromeSidecar is the round-trip payload WriteChrome tucks under the
// top-level "gpoTrace" key. Chrome/Perfetto ignore unknown top-level
// keys, and it spares the parser from reconstructing string tables out
// of display names.
type chromeSidecar struct {
	V       int               `json:"v,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
	Strings []string          `json:"strings,omitempty"`
	Trans   []string          `json:"trans,omitempty"`
	Dropped []uint64          `json:"dropped,omitempty"`
}

// chromeEvent is one element of traceEvents, covering the phases we
// emit: M (metadata), B/E (phase spans), i (instants).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the whole trace.json object.
type chromeFile struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]any `json:"otherData,omitempty"`
	Sidecar         *chromeSidecar `json:"gpoTrace,omitempty"`
}

// WriteChrome writes the dump in Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Each track becomes a
// thread lane (tid = track index + 1); phase events become B/E spans
// and everything else an instant with {kind,a0,a1} args.
func WriteChrome(w io.Writer, d *Dump) error {
	f := chromeFile{
		DisplayTimeUnit: "ns",
		OtherData:       map[string]any{},
		Sidecar: &chromeSidecar{
			V:       FormatVersion,
			Meta:    d.Meta,
			Strings: d.Strings,
			Trans:   d.Trans,
		},
	}
	for k, v := range d.Meta {
		f.OtherData[k] = v
	}
	f.TraceEvents = append(f.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "gpo"},
	})
	for i, tk := range d.Tracks {
		f.Sidecar.Dropped = append(f.Sidecar.Dropped, tk.Dropped)
		tid := i + 1
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": tk.Name},
		})
		for _, ev := range tk.Events {
			ce := chromeEvent{
				TS:  float64(ev.TS) / 1e3,
				PID: 1,
				TID: tid,
			}
			switch ev.Kind {
			case KindPhaseBegin:
				ce.Ph, ce.Name = "B", d.lookup(ev.Arg0)
			case KindPhaseEnd:
				ce.Ph, ce.Name = "E", d.lookup(ev.Arg0)
			default:
				ce.Ph, ce.S = "i", "t"
				ce.Name = ev.Kind.String()
				ce.Args = map[string]any{
					"kind": ev.Kind.String(),
					"a0":   ev.Arg0,
					"a1":   ev.Arg1,
				}
				if internedArg0(ev.Kind) {
					ce.Args["name"] = d.lookup(ev.Arg0)
				}
				if ev.Kind == KindFire {
					ce.Args["t"] = d.transName(ev.Arg0)
				}
			}
			f.TraceEvents = append(f.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// WriteFile writes the dump to path as Chrome trace JSON.
func WriteFile(path string, d *Dump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := WriteChrome(f, d)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadDump parses Chrome trace JSON back into a Dump. The input must be
// one JSON object with a traceEvents array; anything else, a JSONL dump
// included, is refused with ErrBadHeader.
func ReadDump(r io.Reader) (*Dump, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimLeft(data, " \t\r\n")) == 0 {
		return nil, ErrEmptyTrace
	}
	return readChrome(data)
}

// ReadFile parses a trace file written by WriteFile.
func ReadFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(f)
}

func readChrome(data []byte) (*Dump, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%w: not chrome trace json: %v", ErrBadHeader, err)
	}
	if f.TraceEvents == nil {
		return nil, fmt.Errorf("%w: chrome trace json has no traceEvents", ErrBadHeader)
	}
	d := &Dump{Version: 1}
	if f.Sidecar != nil {
		if f.Sidecar.V > FormatVersion {
			return nil, fmt.Errorf("%w: chrome sidecar is v%d, reader understands ≤ v%d",
				ErrVersionMismatch, f.Sidecar.V, FormatVersion)
		}
		d.Version = versionOr1(f.Sidecar.V)
		d.Meta = f.Sidecar.Meta
		d.Strings = f.Sidecar.Strings
		d.Trans = f.Sidecar.Trans
	}
	// tid → track index, discovered from thread_name metadata and any
	// event tids we see, in first-appearance order.
	trackOf := map[int]int{}
	track := func(tid int, name string) int {
		if i, ok := trackOf[tid]; ok {
			if name != "" && d.Tracks[i].Name == "" {
				d.Tracks[i].Name = name
			}
			return i
		}
		i := len(d.Tracks)
		trackOf[tid] = i
		d.Tracks = append(d.Tracks, DumpTrack{Name: name})
		return i
	}
	for _, ce := range f.TraceEvents {
		switch ce.Ph {
		case "M":
			if ce.Name == "thread_name" && ce.TID != 0 {
				name, _ := ce.Args["name"].(string)
				ti := track(ce.TID, name)
				if f.Sidecar != nil && ti < len(f.Sidecar.Dropped) {
					d.Tracks[ti].Dropped = f.Sidecar.Dropped[ti]
				}
			}
		case "B", "E":
			ti := track(ce.TID, "")
			k := KindPhaseBegin
			if ce.Ph == "E" {
				k = KindPhaseEnd
			}
			d.Tracks[ti].Events = append(d.Tracks[ti].Events, Event{
				TS: nsOfMicros(ce.TS), Kind: k, Arg0: d.intern(ce.Name),
			})
		case "i", "I":
			ti := track(ce.TID, "")
			kindName := ce.Name
			if s, ok := ce.Args["kind"].(string); ok {
				kindName = s
			}
			k := kindByName(kindName)
			if k == KindNone {
				continue // foreign instant; not ours
			}
			ev := Event{TS: nsOfMicros(ce.TS), Kind: k}
			if v, ok := ce.Args["a0"].(float64); ok {
				ev.Arg0 = int64(v)
			}
			if v, ok := ce.Args["a1"].(float64); ok {
				ev.Arg1 = int64(v)
			}
			if internedArg0(k) {
				if s, ok := ce.Args["name"].(string); ok {
					ev.Arg0 = d.intern(s)
				}
			}
			d.Tracks[ti].Events = append(d.Tracks[ti].Events, ev)
		}
	}
	return d, nil
}

// versionOr1 maps an absent (zero) version field to legacy v1.
func versionOr1(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}

// nsOfMicros undoes the microsecond scaling of Chrome trace timestamps
// (rounded, so ns-precision events survive the float trip).
func nsOfMicros(us float64) int64 {
	return int64(math.Round(us * 1e3))
}
