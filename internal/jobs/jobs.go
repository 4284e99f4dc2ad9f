// Package jobs is the durable half of asynchronous verification jobs
// (DESIGN.md D11): a jobs/v2 journal of job state transitions (a
// ledger.Journal, which keeps the crash contract) plus the per-job
// ckpt/v3 checkpoint files, both living in one directory. The server
// layers the HTTP surface and the execution loop on top; this package
// owns only what must survive a crash.
//
// A job's identity is its content-addressed run ID (verify.RunKey), so
// resubmitting the same work is idempotent and a checkpoint can never
// be resumed under the wrong job. Every state transition appends one
// JSON line; recovery replays the journal (last line per job wins, the
// request taken from the job's first line) and then repairs
// crash-interrupted jobs: a job left "running" becomes "checkpointed"
// when its checkpoint file is intact, or "queued" (start over) when
// there is none — a torn or corrupt checkpoint file fails loudly at
// resume time via the typed ckpt errors, never silently.
package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs/ledger"
)

// Schema is the versioned format tag stamped on every journal line.
// jobs/v2 journals a job's request once, on its first line; a jobs/v1
// line carries it every time, and replays as it did.
const (
	Schema   = "jobs/v2"
	schemaV1 = "jobs/v1"
)

// State is a job's lifecycle position.
type State string

const (
	// Queued: admitted, durable, not yet started (or re-queued after a
	// crash that hit before the first checkpoint).
	Queued State = "queued"
	// Running: a worker is executing it right now. Found in the journal
	// at recovery time it means the process died mid-run.
	Running State = "running"
	// Checkpointed: suspended at a boundary with a resumable checkpoint
	// on disk (deadline, drain, or crash recovery with an intact file).
	Checkpointed State = "checkpointed"
	// Done: finished with a verdict (stored in Result).
	Done State = "done"
	// Failed: the engine returned an error (stored in Error).
	Failed State = "failed"
	// Canceled: stopped by DELETE. If a checkpoint was taken it is kept,
	// so a canceled job can still be resumed.
	Canceled State = "canceled"
)

// Terminal reports whether a job in this state occupies no worker and
// starts none without an explicit resume.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Canceled || s == Checkpointed
}

// Resumable reports whether POST /v1/jobs/{id}/resume may restart a job
// in this state: suspended with a checkpoint, canceled (with or without
// one), or queued-after-recovery.
func (s State) Resumable() bool {
	return s == Checkpointed || s == Canceled || s == Queued
}

// Record is one job's durable state; every transition journals the
// record but its request, so recovery needs only the first and the last
// line per ID.
type Record struct {
	Schema string `json:"schema"` // "jobs/v2" (read: also "jobs/v1")
	ID     string `json:"id"`     // content-addressed run ID
	State  State  `json:"state"`
	// Request is the original wire request (server.Request JSON), kept
	// verbatim so a restart can re-resolve the job without the client.
	// Only the job's first line carries it: it is up to 8 MB, and a job
	// journals a line per auto-checkpoint.
	Request json.RawMessage `json:"request,omitempty"`
	// Display fields, resolved at submission.
	Net    string `json:"net"`
	Engine string `json:"engine"`
	Check  string `json:"check"`
	// Checkpoint coordinates (of the newest checkpoint, when any).
	States   int    `json:"states,omitempty"`
	Boundary int64  `json:"boundary,omitempty"`
	CkptPath string `json:"ckpt_path,omitempty"`
	// Resumes counts how many times the job re-entered execution.
	Resumes int `json:"resumes,omitempty"`
	// Result is the final response JSON (server.Response) once Done.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`

	CreatedNS int64 `json:"created_unix_ns"`
	UpdatedNS int64 `json:"updated_unix_ns"`
}

// Store is the journal-backed job table. All methods are safe for
// concurrent use.
type Store struct {
	dir     string
	journal *ledger.Journal // never rotates: replay needs every line

	mu    sync.Mutex
	recs  map[string]*Record
	order []string // IDs in first-seen order
}

// journalName is the jobs journal file inside the store directory.
const journalName = "jobs.jsonl"

// Open creates or recovers a job store in dir (created if missing).
// Jobs the journal last saw "running" are repaired: an intact-looking
// checkpoint file demotes them to Checkpointed, otherwise to Queued.
// (Intact-looking = the file exists; content integrity is verified by
// the ckpt package at resume time.)
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, recs: make(map[string]*Record)}
	path := filepath.Join(dir, journalName)
	// Replay, last line per job winning, a line without a request
	// keeping the one seen before. Unparseable lines (a torn final line
	// after a crash) are skipped; OpenJournal then heals the tail.
	err := ledger.Scan(path, func(line []byte) {
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Schema != Schema && rec.Schema != schemaV1 || rec.ID == "" {
			return
		}
		if prev, seen := s.recs[rec.ID]; !seen {
			s.order = append(s.order, rec.ID)
		} else if rec.Request == nil {
			rec.Request = prev.Request
		}
		s.recs[rec.ID] = &rec
	})
	if err != nil {
		return nil, err
	}
	if s.journal, err = ledger.OpenJournal(path, 0); err != nil {
		return nil, err
	}
	// Crash repair, journaled like any other transition so the next
	// recovery does not repeat it.
	for _, id := range s.order {
		rec := s.recs[id]
		if rec.State != Running {
			continue
		}
		if rec.CkptPath != "" && fileExists(rec.CkptPath) {
			rec.State = Checkpointed
		} else {
			rec.State = Queued
		}
		if err := s.journalUpdate(rec); err != nil {
			s.journal.Close()
			return nil, err
		}
	}
	return s, nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// CkptPath is where job id's checkpoint lives. IDs are run IDs
// ("r"+hex), so joining them onto the directory is safe.
func (s *Store) CkptPath(id string) string {
	return filepath.Join(s.dir, id+".ckpt")
}

// Get returns a copy of the job's record.
func (s *Store) Get(id string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// List returns every job in first-submitted order.
func (s *Store) List() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.recs[id])
	}
	return out
}

// Resumable returns the jobs a restarted server can pick back up:
// queued (never ran, or re-queued by crash repair) and checkpointed.
func (s *Store) Resumable() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Record
	for _, id := range s.order {
		if rec := s.recs[id]; rec.State == Queued || rec.State == Checkpointed {
			out = append(out, *rec)
		}
	}
	return out
}

// Create journals a brand-new job in state Queued. A job with this ID
// must not already exist (the server checks first; content addressing
// makes re-submission a lookup, not a second Create).
func (s *Store) Create(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.recs[rec.ID]; exists {
		return fmt.Errorf("jobs: %s already exists", rec.ID)
	}
	rec.Schema = Schema
	rec.State = Queued
	rec.CreatedNS = nowNS()
	rec.UpdatedNS = rec.CreatedNS
	cp := rec
	s.recs[rec.ID] = &cp
	s.order = append(s.order, rec.ID)
	return s.journal.Append(&cp)
}

// Update applies mut to the job's record under the store lock and
// journals the result. The updated copy is returned.
func (s *Store) Update(id string, mut func(*Record)) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[id]
	if !ok {
		return Record{}, fmt.Errorf("jobs: unknown job %s", id)
	}
	mut(rec)
	return *rec, s.journalUpdate(rec)
}

// journalUpdate stamps rec and journals it without its request, which
// the job's first line holds.
func (s *Store) journalUpdate(rec *Record) error {
	rec.Schema = Schema
	rec.UpdatedNS = nowNS()
	line := *rec
	line.Request = nil
	return s.journal.Append(&line)
}

// Close syncs and closes the journal. The store is unusable after.
func (s *Store) Close() error { return s.journal.Close() }

// nowNS is time.Now().UnixNano(), indirected for tests.
var nowNS = func() int64 { return time.Now().UnixNano() }
