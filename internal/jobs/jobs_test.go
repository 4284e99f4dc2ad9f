package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)

	req := json.RawMessage(`{"model":"nsdp","size":4}`)
	if err := s.Create(Record{ID: "r01", Request: req, Net: "NSDP(4)", Engine: "gpo", Check: "deadlock"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(Record{ID: "r01"}); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	rec, ok := s.Get("r01")
	if !ok || rec.State != Queued || rec.Net != "NSDP(4)" || rec.CreatedNS == 0 {
		t.Fatalf("after Create: %+v", rec)
	}
	if _, err := s.Update("r01", func(r *Record) { r.State = Running }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("nope", func(r *Record) {}); err == nil {
		t.Fatal("Update of unknown job succeeded")
	}
	rec, _ = s.Update("r01", func(r *Record) {
		r.State = Done
		r.Result = json.RawMessage(`{"status":"ok"}`)
	})
	if rec.State != Done || rec.UpdatedNS < rec.CreatedNS {
		t.Fatalf("after Done: %+v", rec)
	}

	// Reopen: the full history replays to the final state.
	s.Close()
	s2 := open(t, dir)
	rec, ok = s2.Get("r01")
	if !ok || rec.State != Done || string(rec.Request) != string(req) {
		t.Fatalf("after reopen: %+v", rec)
	}
	if got := s2.List(); len(got) != 1 || got[0].ID != "r01" {
		t.Fatalf("List after reopen: %+v", got)
	}
	if got := s2.Resumable(); len(got) != 0 {
		t.Fatalf("Done job listed resumable: %+v", got)
	}
}

// TestCrashRepair pins the recovery semantics: a job the journal last
// saw "running" resumes from its checkpoint when the file exists, and
// re-queues from scratch when it does not.
func TestCrashRepair(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for _, id := range []string{"rckpt", "rplain", "rqueued"} {
		if err := s.Create(Record{ID: id, Request: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	ckptPath := s.CkptPath("rckpt")
	if err := os.WriteFile(ckptPath, []byte("GPOCKPT1..."), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Update("rckpt", func(r *Record) { r.State = Running; r.CkptPath = ckptPath; r.States = 7; r.Boundary = 3 })
	s.Update("rplain", func(r *Record) { r.State = Running })
	// Simulate the crash: no clean transitions, just reopen.
	s.Close()

	s2 := open(t, dir)
	if rec, _ := s2.Get("rckpt"); rec.State != Checkpointed || rec.Boundary != 3 {
		t.Fatalf("running job with checkpoint: %+v", rec)
	}
	if rec, _ := s2.Get("rplain"); rec.State != Queued {
		t.Fatalf("running job without checkpoint: %+v", rec)
	}
	if rec, _ := s2.Get("rqueued"); rec.State != Queued {
		t.Fatalf("queued job: %+v", rec)
	}
	if got := s2.Resumable(); len(got) != 3 {
		t.Fatalf("Resumable: %+v", got)
	}
	// The repair itself was journaled: a third open sees the same states
	// without re-repairing.
	s2.Close()
	s3 := open(t, dir)
	if rec, _ := s3.Get("rckpt"); rec.State != Checkpointed {
		t.Fatalf("after second reopen: %+v", rec)
	}
}

// TestTornTailSkipped writes the crash shape: a fragment with no
// newline at the journal's end. The fragment is skipped, and a job
// created after the reopen lands on its own line and survives the next
// one.
func TestTornTailSkipped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Create(Record{ID: "rok", Request: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":"jobs/v1","id":"rok","state":"do`)
	f.Close()
	s2 := open(t, dir)
	if rec, _ := s2.Get("rok"); rec.State != Queued {
		t.Fatalf("torn line was not skipped: %+v", rec)
	}
	if err := s2.Create(Record{ID: "rnext", Request: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := open(t, dir)
	if rec, ok := s3.Get("rnext"); !ok || rec.State != Queued {
		t.Fatalf("job created after the torn tail was lost: %+v", rec)
	}
	if got := s3.List(); len(got) != 2 {
		t.Fatalf("List after two reopens: %+v", got)
	}
}
