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
//   - The file is a Journal (journal.go), which keeps the JSONL crash
//     contract for the ledger and the jobs store alike; the ledger's
//     rotates at a fixed 16 MiB per generation.
//   - Timestamps are caller-supplied UnixNano integers, so entries
//     survive a JSON round trip bit-for-bit and tests can use fake
//     clocks.
//   - A nil *Log is a no-op appender, so callers thread one
//     unconditionally (the same convention as obs.Registry).
package ledger

import (
	"encoding/json"
	"math"
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

// maxBytes is the ledger's rotation budget: generous enough for ~50k
// entries per generation, small enough that a forgotten ledger never
// eats a disk.
const maxBytes = 16 << 20

// recentCap bounds the in-memory tail a Log keeps for serving /v1/runs
// without rereading the file.
const recentCap = 256

// Log is the ledger's journal plus its recent tail. All methods are
// safe for concurrent use; all methods are no-ops on nil.
type Log struct {
	mu     sync.Mutex
	j      *Journal
	recent []Entry // tail of appended entries, oldest first, ≤ recentCap
}

// Open opens (creating if needed) the ledger at path. Existing entries
// stay where they are; new appends go to the end.
func Open(path string) (*Log, error) {
	j, err := OpenJournal(path, maxBytes)
	if err != nil {
		return nil, err
	}
	return &Log{j: j}, nil
}

// Append writes e as one line. The entry's Schema is stamped here so
// callers cannot forget it.
func (l *Log) Append(e Entry) error {
	if l == nil {
		return nil
	}
	e.Schema = Schema
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.j.Append(e); err != nil {
		return err
	}
	l.recent = append(l.recent, e)
	if len(l.recent) > recentCap {
		l.recent = append(l.recent[:0], l.recent[len(l.recent)-recentCap:]...)
	}
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
	return l.j.path
}

// Close syncs and closes the journal.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.j.Close()
}

// Read reconstructs history from the ledger at path, both generations,
// oldest first. Lines that fail to parse or carry another schema — a
// torn tail after a crash — are skipped. A missing ledger reads as
// empty; a read error returns the entries before it.
func Read(path string) ([]Entry, error) {
	var out []Entry
	err := Scan(path, func(line []byte) {
		var e Entry
		if json.Unmarshal(line, &e) == nil && e.Schema == Schema {
			out = append(out, e)
		}
	})
	return out, err
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
