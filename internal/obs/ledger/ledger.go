// Package ledger is the durable run journal: an append-only JSONL file
// where every verification — CLI or daemon — records its content-
// addressed run ID, options, verdict, and final metrics snapshot. The
// ledger is what turns a fleet of one-shot explorations into comparable
// history: Table 1 is an argument about *runs of the same net under
// different engines*, and the ledger gives each such run a durable
// identity (verify.RunKey) that the result cache, the access log, the
// trace dumps and the /v1/runs surface all share.
//
// Design rules:
//
//   - One JSON object per line, written with a single Write call while
//     holding the log's mutex, so concurrent appenders interleave only
//     at line granularity and a crash can corrupt at most the final
//     line. The reader skips lines that fail to parse, which makes a
//     torn tail harmless rather than fatal.
//   - Rotation by byte budget: when the journal would exceed MaxBytes
//     the current file is renamed to <path>.1 (replacing any previous
//     generation) and a fresh file is started. Readers stitch <path>.1
//     and <path> back together, oldest first.
//   - Timestamps are caller-supplied UnixNano integers, so entries
//     survive a JSON round trip bit-for-bit and tests can use fake
//     clocks.
//   - A nil *Log is a no-op appender, so callers thread one
//     unconditionally (the same convention as obs.Registry).
package ledger

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// Schema is the versioned format tag stamped on every entry. Bump it
// only with a migration note in OBSERVABILITY.md.
const Schema = "ledger/v1"

// Entry is one completed (or aborted) verification run.
type Entry struct {
	Schema string `json:"schema"` // always "ledger/v1"
	// RunID is the content address of the run: verify.RunKey rendered as
	// "r"+hex. Identical net+check+options yield identical run IDs, so
	// repeated runs of one configuration share an ID and group naturally
	// into history — the join key across cache, access log and traces.
	RunID string `json:"run_id"`
	// RequestID is the daemon's per-HTTP-request ID (empty for CLI
	// runs): it distinguishes individual executions that share a RunID.
	RequestID string `json:"request_id,omitempty"`
	Source    string `json:"source"` // "gpod" or "gpoverify"
	Net       string `json:"net"`    // net name, e.g. "nsdp(10)"
	Engine    string `json:"engine"`
	Check     string `json:"check"` // "deadlock" or "safety"

	// Result-determining options (the ones hashed into RunID).
	StopAtFirst bool `json:"stop_at_first,omitempty"`
	Proviso     bool `json:"proviso,omitempty"`
	Reduce      bool `json:"reduce,omitempty"`
	MaxStates   int  `json:"max_states,omitempty"`
	MaxNodes    int  `json:"max_nodes,omitempty"`
	Workers     int  `json:"workers,omitempty"` // informational; not part of RunID
	// Peers is the cluster size when the request asked for cluster
	// execution (0 otherwise). Informational like Workers: the run
	// executes in process either way, so Peers is not part of RunID.
	Peers int `json:"peers,omitempty"`

	StartUnixNS int64 `json:"start_unix_ns"`
	EndUnixNS   int64 `json:"end_unix_ns"`
	WallNS      int64 `json:"wall_ns"`

	Status      string `json:"status"` // "ok", "aborted", "checkpointed", "error"
	AbortReason string `json:"abort_reason,omitempty"`
	Deadlock    bool   `json:"deadlock,omitempty"`
	States      int64  `json:"states"`
	PeakBDD     int64  `json:"peak_bdd,omitempty"`
	PeakSets    int64  `json:"peak_sets,omitempty"`
	Complete    bool   `json:"complete"`

	// TracePath points at the flight-recorder dump for this run, when
	// one was written (aborted daemon runs with a trace sink).
	TracePath string `json:"trace_path,omitempty"`
	// Metrics is the run's final counter/gauge snapshot (per-run
	// registry), keyed by the dot-separated names OBSERVABILITY.md
	// documents.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Verdict renders the run's outcome as one word for history listings.
func (e Entry) Verdict() string {
	switch e.Status {
	case "ok":
		if e.Check == "safety" {
			if e.Deadlock { // safety checks report violations in Deadlock
				return "unsafe"
			}
			return "safe"
		}
		if e.Deadlock {
			return "deadlock"
		}
		return "deadlock-free"
	case "aborted":
		return "aborted"
	default:
		return e.Status
	}
}

// DefaultMaxBytes is the rotation budget when Open is given none:
// generous enough for ~50k entries per generation, small enough that a
// forgotten ledger never eats a disk.
const DefaultMaxBytes = 16 << 20

// recentCap bounds the in-memory tail a Log keeps for serving /v1/runs
// without rereading the file.
const recentCap = 256

// Log is an append-only JSONL journal with byte-budget rotation. All
// methods are safe for concurrent use; all methods are no-ops on nil.
type Log struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	size     int64
	maxBytes int64
	recent   []Entry // tail of appended entries, oldest first, ≤ recentCap
}

// Open opens (creating if needed) the journal at path. maxBytes ≤ 0
// selects DefaultMaxBytes. Existing entries stay where they are; new
// appends go to the end.
func Open(path string, maxBytes int64) (*Log, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: stat %s: %w", path, err)
	}
	size := st.Size()
	// Heal a torn tail: if the previous writer crashed mid-line, the file
	// ends without a newline. Terminate that fragment now so the garbage
	// stays confined to its own (skipped) line instead of fusing with the
	// next append.
	if size > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], size-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("ledger: heal %s: %w", path, err)
			}
			size++
		}
	}
	return &Log{path: path, f: f, size: size, maxBytes: maxBytes}, nil
}

// Append writes e as one line. The entry's Schema is stamped here so
// callers cannot forget it. Rotation happens before the write when the
// line would push the file past the byte budget.
func (l *Log) Append(e Entry) error {
	if l == nil {
		return nil
	}
	e.Schema = Schema
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ledger: marshal: %w", err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.size > 0 && l.size+int64(len(line)) > l.maxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("ledger: append %s: %w", l.path, err)
	}
	l.size += int64(len(line))
	l.recent = append(l.recent, e)
	if len(l.recent) > recentCap {
		l.recent = append(l.recent[:0], l.recent[len(l.recent)-recentCap:]...)
	}
	return nil
}

func (l *Log) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("ledger: rotate close: %w", err)
	}
	if err := os.Rename(l.path, l.path+".1"); err != nil {
		return fmt.Errorf("ledger: rotate rename: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: rotate reopen: %w", err)
	}
	l.f = f
	l.size = 0
	return nil
}

// Recent returns a copy of the most recently appended entries (oldest
// first, at most the retained tail) without touching the file — how the
// daemon serves the completed half of GET /v1/runs.
func (l *Log) Recent() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.recent))
	copy(out, l.recent)
	return out
}

// Path returns the journal path ("" on nil).
func (l *Log) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Close closes the underlying file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Read reconstructs history from the journal at path, stitching the
// rotated generation <path>.1 (if present) before the current file.
// Lines that fail to parse — a torn tail after a crash, a truncated
// rotation — are skipped, not fatal. A missing journal reads as empty.
func Read(path string) ([]Entry, error) {
	var out []Entry
	for _, p := range []string{path + ".1", path} {
		f, err := os.Open(p)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("ledger: read %s: %w", p, err)
		}
		out = append(out, ReadAll(f)...)
		f.Close()
	}
	return out, nil
}

// ReadAll decodes every parseable entry line from r, skipping garbage.
func ReadAll(r io.Reader) []Entry {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Schema != Schema {
			continue // torn or foreign line: crash-safety contract
		}
		out = append(out, e)
	}
	return out
}

// Group is the reconstructed history of one (net, engine, check)
// configuration across runs.
type Group struct {
	Net    string
	Engine string
	Check  string
	Runs   int
	// Aborted counts runs that did not complete; Completed counts the
	// ones that did (Runs = Completed + Aborted). A group can have zero
	// completed runs — every run aborted — and then the wall/states
	// fields below carry no information.
	Aborted   int
	Completed int
	// Wall-clock distribution over completed runs (ns).
	MedianWallNS int64
	P90WallNS    int64
	// StatesPerSec is the aggregate throughput over completed runs:
	// total states / total wall.
	StatesPerSec float64
	// States is the state count agreed on by completed runs. It is 0
	// when the group has no completed runs and -1 when completed runs
	// disagree; only StatesDisagree distinguishes a genuine determinism
	// red flag from an empty group (an earlier version conflated the two
	// by initializing the sentinel to -1).
	States         int64
	StatesDisagree bool
	// Outliers are completed runs whose wall clock exceeded twice the
	// group median (only flagged once the group has ≥ 3 completed runs,
	// below that "outlier" has no baseline to mean anything against).
	Outliers []Entry
}

// Summarize groups entries by (net, engine, check) and computes the
// per-group wall-clock distribution, throughput, and outliers. Groups
// come back sorted by net, then engine, then check.
func Summarize(entries []Entry) []Group {
	type key struct{ net, engine, check string }
	byKey := make(map[key][]Entry)
	var order []key
	for _, e := range entries {
		k := key{e.Net, e.Engine, e.Check}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], e)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.net != b.net {
			return a.net < b.net
		}
		if a.engine != b.engine {
			return a.engine < b.engine
		}
		return a.check < b.check
	})
	groups := make([]Group, 0, len(order))
	for _, k := range order {
		runs := byKey[k]
		g := Group{Net: k.net, Engine: k.engine, Check: k.check, Runs: len(runs)}
		var walls []int64
		var totalStates, totalWall int64
		for _, e := range runs {
			if e.Status != "ok" {
				g.Aborted++
				continue
			}
			g.Completed++
			walls = append(walls, e.WallNS)
			totalStates += e.States
			totalWall += e.WallNS
			if g.Completed == 1 {
				g.States = e.States
			} else if g.States != e.States {
				g.StatesDisagree = true
			}
		}
		if g.StatesDisagree {
			g.States = -1
		}
		if len(walls) > 0 {
			sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
			g.MedianWallNS = quantile(walls, 0.5)
			g.P90WallNS = quantile(walls, 0.9)
			if totalWall > 0 {
				g.StatesPerSec = float64(totalStates) / (float64(totalWall) / 1e9)
			}
			if len(walls) >= 3 {
				for _, e := range runs {
					if e.Status == "ok" && e.WallNS > 2*g.MedianWallNS {
						g.Outliers = append(g.Outliers, e)
					}
				}
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// quantile returns the q-quantile of sorted, using the ceil nearest-rank
// rule rank = ⌈q·n⌉ — the same definition as obs.Histogram.Quantile, so
// a group's median/p90 and the histogram view of the same runs agree.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q * float64(len(sorted))))
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
