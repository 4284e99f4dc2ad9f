package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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

// TestRequestJournaledOnce: a job's request is on its first line only. A
// 1 MB request checkpointed ten times grows the journal by less than
// 10 KB after creation, and a reopen still resolves the request.
func TestRequestJournaledOnce(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	req := json.RawMessage(`{"net":"` + strings.Repeat("p", 1<<20) + `"}`)
	if err := s.Create(Record{ID: "rbig", Request: req}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalName)
	created := fileSize(t, path)
	for i := 1; i <= 10; i++ {
		if _, err := s.Update("rbig", func(r *Record) {
			r.State, r.States, r.Boundary, r.CkptPath = Running, 100*i, int64(i), s.CkptPath("rbig")
		}); err != nil {
			t.Fatal(err)
		}
	}
	if grown := fileSize(t, path) - created; grown >= 10<<10 {
		t.Errorf("ten checkpoints grew the journal by %d bytes, want < 10 KB", grown)
	}
	if rec, _ := s.Get("rbig"); string(rec.Request) != string(req) {
		t.Error("Update dropped the request from the live record")
	}
	s.Close()
	rec, _ := open(t, dir).Get("rbig")
	if string(rec.Request) != string(req) || rec.Boundary != 10 || rec.State != Queued {
		t.Errorf("after reopen: state %s boundary %d, request of %d bytes", rec.State, rec.Boundary, len(rec.Request))
	}
}

// TestV1JournalReplays: a jobs/v1 journal, which repeats the request on
// every line, replays as it did, and lines appended to it now leave
// the request out.
func TestV1JournalReplays(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"schema":"jobs/v1","id":"rold","state":"queued","request":{"model":"nsdp","size":4},"net":"NSDP(4)","engine":"gpo","check":"deadlock","created_unix_ns":1,"updated_unix_ns":1}
{"schema":"jobs/v1","id":"rold","state":"done","request":{"model":"nsdp","size":4},"net":"NSDP(4)","engine":"gpo","check":"deadlock","result":{"status":"ok"},"created_unix_ns":1,"updated_unix_ns":2}
`
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir)
	rec, ok := s.Get("rold")
	if !ok || rec.State != Done || string(rec.Request) != `{"model":"nsdp","size":4}` || string(rec.Result) != `{"status":"ok"}` {
		t.Fatalf("v1 replay: %+v", rec)
	}
	if _, err := s.Update("rold", func(r *Record) { r.State = Canceled }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	rec, _ = open(t, dir).Get("rold")
	if rec.State != Canceled || string(rec.Request) != `{"model":"nsdp","size":4}` || rec.Schema != Schema {
		t.Fatalf("v1 then v2 replay: %+v", rec)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
