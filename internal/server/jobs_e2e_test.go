package server_test

// End-to-end tests of the durable jobs surface (DESIGN.md D11): the
// full submit → checkpoint → suspend → resume arc over real HTTP, a
// restart picking up where the dead server left off, cancel keeping the
// checkpoint, and drain leaving queued jobs durable instead of burning
// them. The soundness anchor throughout: a resumed job's final numbers
// equal a fresh uninterrupted run's exactly.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs/ledger"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/servertest"
)

// jobsService boots a jobs-enabled server over dir and returns the
// client plus the server handle (for Drain) and its store.
func jobsService(t *testing.T, dir string, cfg server.Config) (*client.Client, *server.Server, *jobs.Store) {
	t.Helper()
	st, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) // after the server, which start closes
	cfg.Jobs = st
	s := start(t, cfg)
	return s.Client, s.Service, st
}

// waitJob polls until the job reaches one of the wanted states.
func waitJob(t *testing.T, c *client.Client, id string, want ...jobs.State) *client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		j, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		for _, w := range want {
			if j.State == w {
				return j
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want one of %v", id, j.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestE2EJobsLifecycle: a small job runs to completion, its result
// lands in the record AND the result cache, and resubmission is an
// idempotent lookup.
func TestE2EJobsLifecycle(t *testing.T) {
	c, _, _ := jobsService(t, t.TempDir(), server.Config{Workers: 2})
	ctx := context.Background()
	req := &server.Request{Model: "nsdp", Size: 6, Engine: "exhaustive"}

	j, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if j.ID == "" || j.Net != "NSDP(6)" || j.Check != "deadlock" {
		t.Fatalf("submitted record: %+v", j.Record)
	}
	done := waitJob(t, c, j.ID, jobs.Done)
	var res server.Response
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Status != server.StatusOK || !res.Complete || res.States != 5778 || !res.Deadlock {
		t.Fatalf("job result: %+v", res)
	}

	// The job populated the shared result cache: a synchronous request
	// for the same work is a cache hit, not a second run.
	sync, err := c.Verify(ctx, req)
	if err != nil {
		t.Fatalf("verify after job: %v", err)
	}
	if !sync.Cached || sync.States != res.States {
		t.Fatalf("sync after job should be the cached job result: %+v", sync)
	}

	// Idempotent resubmission: same content address, same (finished) job.
	again, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if again.ID != j.ID || again.State != jobs.Done {
		t.Fatalf("resubmit: %+v", again.Record)
	}

	list, err := c.Jobs(ctx)
	if err != nil || len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("jobs list: %v %+v", err, list)
	}
}

// TestE2EJobSuspendResume: a job whose time slice is far too small for
// the work suspends at a boundary with a checkpoint; resuming finishes
// it and the final numbers are exactly a fresh full run's.
func TestE2EJobSuspendResume(t *testing.T) {
	c, _, _ := jobsService(t, t.TempDir(), server.Config{Workers: 2})
	ctx := context.Background()
	// NSDP(8) explores 103682 states in ~hundreds of ms; a 1ms slice is
	// over by the first poll, and the deadline only suspends past the
	// boundary a slice entered on: each slice advances at least one level.
	req := &server.Request{Model: "nsdp", Size: 8, Engine: "exhaustive", TimeoutMS: 1}

	j, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	sus := waitJob(t, c, j.ID, jobs.Checkpointed)
	if sus.CkptPath == "" || sus.States <= 0 || sus.Boundary <= 0 {
		t.Fatalf("suspended without checkpoint coordinates: %+v", sus.Record)
	}
	if _, err := os.Stat(sus.CkptPath); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	if sus.States >= 103682 {
		t.Fatalf("suspended job claims full exploration: %+v", sus.Record)
	}

	// Override nothing — the stored request still says 1ms, so every
	// resume advances at least one level and NSDP(8)'s 83 levels bound the
	// loop. Confirm monotone progress and completion.
	states := sus.States
	var fin *client.Job
	for i := 0; i < 200; i++ {
		if _, err := c.ResumeJob(ctx, j.ID); err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
		fin = waitJob(t, c, j.ID, jobs.Checkpointed, jobs.Done)
		if fin.States < states {
			t.Fatalf("resume %d went backwards: %d -> %d states", i, states, fin.States)
		}
		states = fin.States
		if fin.State == jobs.Done {
			break
		}
	}
	if fin.State != jobs.Done {
		t.Fatalf("job never completed: %+v", fin.Record)
	}
	if fin.Resumes == 0 {
		t.Fatalf("Resumes not counted: %+v", fin.Record)
	}
	var res server.Response
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	// The acceptance bar: identical to an uninterrupted run.
	if res.States != 103682 || !res.Deadlock || !res.Complete || res.Status != server.StatusOK {
		t.Fatalf("resumed result differs from a fresh run: %+v", res)
	}
}

// TestE2EJobResumeAfterSettle: a job's record takes its terminal state
// only after its worker's bookkeeping is done, so a client may act on a
// state the moment it reads it. Resuming right after every checkpointed
// or canceled slice is never a 409 "already queued or running", and
// /v1/runs/{id} already answers with the slice's ledger entry, never a
// run that is still live — after done, with the completed run's.
func TestE2EJobResumeAfterSettle(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	st, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := start(t, server.Config{Workers: 2, Jobs: st, Ledger: l})
	c, ctx := s.Client, context.Background()
	ledgerEntry := func(id string) ledger.Entry {
		t.Helper()
		hr, err := s.HTTP.Get(s.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var raw json.RawMessage
		if err := json.NewDecoder(hr.Body).Decode(&raw); err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s: %d, %v", id, hr.StatusCode, err)
		}
		var e ledger.Entry
		if err := json.Unmarshal(raw, &e); err != nil || e.Schema != ledger.Schema {
			t.Fatalf("GET /v1/runs/%s right after the job settled is not its ledger entry: %s", id, raw)
		}
		return e
	}

	// Each job is resumed right after every slice until it is done: in
	// 1 ms slices, each of which ends checkpointed past one more of
	// NSDP(8)'s 83 levels, and in 10 s slices canceled as soon as they
	// are admitted, each of which ends canceled.
	for _, tc := range []struct {
		timeoutMS int64
		cancel    bool
		settled   jobs.State
	}{{1, false, jobs.Checkpointed}, {0, true, jobs.Canceled}} {
		submit := func() (*client.Job, error) {
			return c.SubmitJob(ctx, &server.Request{Model: "nsdp", Size: 8, Engine: "exhaustive", TimeoutMS: tc.timeoutMS})
		}
		for i := 0; ; i++ {
			j, err := submit()
			if err != nil {
				t.Fatalf("%s: slice %d: %v", tc.settled, i, err)
			}
			if tc.cancel {
				if _, err := c.CancelJob(ctx, j.ID); err != nil {
					t.Fatalf("cancel: %v", err)
				}
			}
			got := waitJob(t, c, j.ID, tc.settled, jobs.Done)
			e := ledgerEntry(j.ID)
			if got.State == jobs.Done {
				if e.Status != "ok" || !e.Complete || e.States != 103682 || !e.Deadlock {
					t.Fatalf("ledger entry after done: %+v", e)
				}
				break
			}
			if i == 200 {
				t.Fatalf("job never completed: %+v", got.Record)
			}
			submit = func() (*client.Job, error) { return c.ResumeJob(ctx, j.ID) }
			if i == 5 {
				tc.cancel = false // let the canceled job run to done
			}
		}
	}
}

// TestE2EJobRestartResume is the crash-safe arc: the job suspends on
// server A, A shuts down, server B opens the same directory and
// ResumeJobs picks the job back up to completion.
func TestE2EJobRestartResume(t *testing.T) {
	dir := t.TempDir()
	stA, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := servertest.Start(server.Config{Workers: 2, Jobs: stA})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Kill) // should the test fail before it kills A itself
	ctx := context.Background()

	req := &server.Request{Model: "nsdp", Size: 8, Engine: "exhaustive", TimeoutMS: 1}
	j, err := a.Client.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	sus := waitJob(t, a.Client, j.ID, jobs.Checkpointed)
	a.Kill()
	stA.Close()
	if _, err := os.Stat(sus.CkptPath); err != nil {
		t.Fatalf("checkpoint file after server A died: %v", err)
	}

	// Server B: same directory. ResumeJobs re-admits the suspended job
	// without any client involvement.
	cB, svcB, _ := jobsService(t, dir, server.Config{Workers: 2})
	if n := svcB.ResumeJobs(); n != 1 {
		t.Fatalf("ResumeJobs = %d, want 1", n)
	}
	if list, err := cB.Jobs(ctx); err != nil || len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("job list after restart: %+v, %v", list, err)
	}
	// A restart keeps the stored request verbatim, and its 1ms slice just
	// suspends again: step it with resumes like a client would.
	fin := waitJob(t, cB, j.ID, jobs.Checkpointed, jobs.Done)
	if fin.States < sus.States {
		t.Fatalf("restart went backwards: %d -> %d states", sus.States, fin.States)
	}
	for i := 0; fin.State != jobs.Done && i < 200; i++ {
		if _, err := cB.ResumeJob(ctx, j.ID); err != nil {
			t.Fatalf("resume: %v", err)
		}
		fin = waitJob(t, cB, j.ID, jobs.Checkpointed, jobs.Done)
	}
	if fin.Resumes == 0 {
		t.Fatalf("job finished without ever resuming from its checkpoint: %+v", fin.Record)
	}
	var res server.Response
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.States != 103682 || !res.Deadlock || !res.Complete {
		t.Fatalf("post-restart result differs from a fresh run: %+v", res)
	}
}

// TestE2EJobCancelKeepsCheckpoint: DELETE suspends the job at its next
// boundary, the checkpoint survives, and a resume still completes with
// fresh-run numbers.
func TestE2EJobCancel(t *testing.T) {
	c, _, _ := jobsService(t, t.TempDir(), server.Config{Workers: 2, CkptEveryStates: 1})
	ctx := context.Background()
	req := &server.Request{Model: "nsdp", Size: 8, Engine: "exhaustive"}

	j, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.CancelJob(ctx, j.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	got := waitJob(t, c, j.ID, jobs.Canceled, jobs.Done)
	if got.State == jobs.Done {
		t.Skip("job finished before the cancel landed (loaded machine); nothing to assert")
	}
	// Canceled is resumable; with CkptEveryStates=1 a checkpoint exists
	// unless the cancel landed before the very first boundary.
	if _, err := c.ResumeJob(ctx, j.ID); err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	fin := waitJob(t, c, j.ID, jobs.Done)
	var res server.Response
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.States != 103682 || !res.Deadlock || !res.Complete {
		t.Fatalf("post-cancel result differs from a fresh run: %+v", res)
	}
}

// TestE2EJobDrain pins satellite 1: draining suspends the running job
// with a checkpoint and leaves queued jobs queued — both durable, both
// resumable by the next process.
func TestE2EJobDrain(t *testing.T) {
	dir := t.TempDir()
	c, svc, _ := jobsService(t, dir, server.Config{Workers: 1})
	ctx := context.Background()

	runReq := &server.Request{Model: "nsdp", Size: 8, Engine: "exhaustive"}
	queuedReq := &server.Request{Model: "nsdp", Size: 6, Engine: "exhaustive"}
	running, err := c.SubmitJob(ctx, runReq)
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	queued, err := c.SubmitJob(ctx, queuedReq)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	waitJob(t, c, running.ID, jobs.Running, jobs.Done)
	svc.Drain()
	got := waitJob(t, c, running.ID, jobs.Checkpointed, jobs.Done)
	if got.State == jobs.Checkpointed && got.CkptPath == "" {
		t.Fatalf("drain-suspended job has no checkpoint: %+v", got.Record)
	}
	// New submissions and resumes shed with 503 while draining.
	if _, err := c.SubmitJob(ctx, &server.Request{Model: "nsdp", Size: 4}); err == nil {
		t.Fatal("submit during drain succeeded")
	}
	svc.Close() // workers drain the queue; the queued job must survive it

	// The queued job was not burned: the store still says queued (or
	// checkpointed, had a worker started it before the drain flag rose).
	st2, err := jobs.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec, ok := st2.Get(queued.ID)
	if !ok || (rec.State != jobs.Queued && rec.State != jobs.Checkpointed && rec.State != jobs.Done) {
		t.Fatalf("queued job after drain+close: %+v", rec)
	}
	if rec.State == jobs.Queued && rec.Resumes != 0 {
		t.Fatalf("queued job should be untouched: %+v", rec)
	}
	res := st2.Resumable()
	if len(res) == 0 {
		t.Fatalf("nothing resumable after drain; store: %+v", st2.List())
	}
}

// TestE2EJobValidation: jobs reject cluster execution and engines
// without deterministic checkpoint boundaries, as client errors.
func TestE2EJobValidation(t *testing.T) {
	c, _, _ := jobsService(t, t.TempDir(), server.Config{Workers: 1})
	ctx := context.Background()
	for _, req := range []*server.Request{
		{Model: "nsdp", Size: 4, Engine: "symbolic"},
		{Model: "nsdp", Size: 4, Engine: "partial-order"},
		{Model: "nsdp", Size: 4, Engine: "exhaustive", Cluster: true},
	} {
		_, err := c.SubmitJob(ctx, req)
		apiErr, ok := err.(*client.APIError)
		if !ok || apiErr.StatusCode != 400 {
			t.Errorf("submit %+v: err = %v, want 400", req, err)
		}
	}
	if _, err := c.Job(ctx, "rdeadbeef"); err == nil {
		t.Error("GET of unknown job succeeded")
	}
	if _, err := c.ResumeJob(ctx, "rdeadbeef"); err == nil {
		t.Error("resume of unknown job succeeded")
	}
}

// TestE2EJobIDCollision: a job ID is the 96-bit run ID, so a job found
// under it is the submitted work only if its request resolves to the
// same full key. Other work under the ID is a conflict, not a lookup.
func TestE2EJobIDCollision(t *testing.T) {
	c, _, st := jobsService(t, t.TempDir(), server.Config{Workers: 1})
	x := &server.Request{Model: "nsdp", Size: 4, Engine: "exhaustive"}
	y, err := json.Marshal(&server.Request{Model: "nsdp", Size: 5, Engine: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	id := runKey(t, x).RunID()
	if err := st.Create(jobs.Record{ID: id, Request: y, Net: "NSDP(5)", Engine: "exhaustive", Check: server.CheckDeadlock}); err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitJob(context.Background(), x)
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 409 {
		t.Fatalf("submit under another job's ID: %+v, %v; want 409", j, err)
	}
}

// TestE2EJobResumeRefusesBadCheckpoint: a job whose checkpoint is
// unusable — either ckpt/v1 fixture, which this build does not read, or
// a torn file — is refused by ResumeJobs and by POST /v1/jobs/{id}/resume alike.
// The job keeps its state with the reason recorded, ckpt.load_errors
// counts each refusal, and the job never starts over from scratch.
func TestE2EJobResumeRefusesBadCheckpoint(t *testing.T) {
	v1 := func(kind string) func([]byte) []byte {
		b, err := os.ReadFile("../ckpt/testdata/v1-" + kind + ".ckpt")
		if err != nil {
			t.Fatal(err)
		}
		return func([]byte) []byte { return b }
	}
	for _, tc := range []struct {
		name   string
		damage func(ckpt []byte) []byte
		reason string
	}{
		{"v1-reach", v1("reach"), "unsupported checkpoint format version"},
		{"v1-core", v1("core"), "unsupported checkpoint format version"},
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }, "torn checkpoint"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := jobs.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			s := start(t, server.Config{Workers: 2, Jobs: st})
			ctx := context.Background()
			req := &server.Request{Model: "nsdp", Size: 8, Engine: "exhaustive", TimeoutMS: 1}
			j, err := s.Client.SubmitJob(ctx, req)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			sus := waitJob(t, s.Client, j.ID, jobs.Checkpointed)
			b, err := os.ReadFile(sus.CkptPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(sus.CkptPath, tc.damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			explored := s.Metrics.Snapshot().Counters["reach.states"]

			refused := func(via string, loadErrors int64) {
				t.Helper()
				got, err := s.Client.Job(ctx, j.ID)
				if err != nil {
					t.Fatal(err)
				}
				if got.State != jobs.Checkpointed || got.States != sus.States || got.Resumes != 0 ||
					!strings.Contains(got.Error, tc.reason) {
					t.Errorf("%s: job after the refusal: %+v, want it checkpointed at %d states with %q recorded",
						via, got.Record, sus.States, tc.reason)
				}
				if n := s.Metrics.Snapshot().Counters["ckpt.load_errors"]; n != loadErrors {
					t.Errorf("%s: ckpt.load_errors = %d, want %d", via, n, loadErrors)
				}
			}
			if n := s.Service.ResumeJobs(); n != 0 {
				t.Errorf("ResumeJobs re-admitted %d jobs, want 0", n)
			}
			refused("ResumeJobs", 1)
			if _, err := s.Client.ResumeJob(ctx, j.ID); err == nil || !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("POST resume: err = %v, want a refusal naming %q", err, tc.reason)
			}
			refused("POST resume", 2)
			if n := s.Metrics.Snapshot().Counters["reach.states"]; n != explored {
				t.Errorf("the refused job explored again: reach.states %d -> %d", explored, n)
			}
		})
	}
}
