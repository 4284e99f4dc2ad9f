package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/models"
	"repro/internal/obs/ledger"
	"repro/internal/obs/trace"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/verify"
)

// childEnv marks a re-executed test binary that is to be the daemon:
// TestMain runs main() on the arguments it was given instead of the tests.
const childEnv = "GPOD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// output collects a child's stdout for the test to read while it runs.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// daemon is one gpod child process.
type daemon struct {
	cmd    *exec.Cmd
	stdout *output
	c      *client.Client
}

var listening = regexp.MustCompile(`gpod: listening on (\S+)\n`)

// startDaemon runs main() with args in a child process and waits for it
// to announce its address. The child is killed at the latest when the
// test ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: exec.Command(exe, args...), stdout: &output{}}
	d.cmd.Env = append(os.Environ(), childEnv+"=1")
	d.cmd.Stdout = d.stdout
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := listening.FindStringSubmatch(d.stdout.String()); m != nil {
			d.c = client.New("http://"+m[1], nil)
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("gpod %v never announced its address; stdout:\n%s", args, d.stdout)
		}
	}
}

// waitJob polls the job until it is in one of the wanted states.
func waitJob(t *testing.T, c *client.Client, id string, want ...jobs.State) *client.Job {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		j, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		for _, w := range want {
			if j.State == w {
				return j
			}
		}
		if j.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (error %q), want one of %v", id, j.State, j.Error, want)
		}
	}
}

// TestDaemonCrashAndRestart drives the shipped path — main's flag
// wiring, listen, serve, the SIGTERM drain — through the crash-safe arc
// of DESIGN.md D11 with real processes: a first daemon answers a
// verification, takes a durable job to its first checkpoint and is
// SIGKILLed; a second one over the same directories re-admits the job
// at startup and runs it home to the verdict of an uninterrupted run,
// then drains on SIGTERM and exits 0, leaving a ledger gpostat can read.
func TestDaemonCrashAndRestart(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-ledger", ledgerPath,
		"-jobs", filepath.Join(dir, "jobs"),
		"-ckpt-interval", "20ms",
	}
	ctx := context.Background()

	a := startDaemon(t, args...)
	if status, err := a.c.Healthz(ctx); err != nil || status != "ok" {
		t.Fatalf("healthz: %q, %v", status, err)
	}
	// NSDP(4) deadlocks (every philosopher holding their left fork).
	resp, err := a.c.Verify(ctx, &server.Request{Model: "nsdp", Size: 4, Engine: "gpo"})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if resp.Status != server.StatusOK || !resp.Complete || !resp.Deadlock || len(resp.Witness) == 0 {
		t.Fatalf("verify: %+v", resp)
	}
	snap, err := a.c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	// The completed run must be counted, and charged to the result cache:
	// accounting drift there once hid a Witness-aliasing bug.
	if snap.Counters["server.done"] != 1 || snap.Gauges["server.cache_bytes"] <= 0 {
		t.Fatalf("after one run: server.done = %d, server.cache_bytes = %d",
			snap.Counters["server.done"], snap.Gauges["server.cache_bytes"])
	}

	// NSDP(8) is 103 682 states, 40 ms of exploration at the least; a 10 ms
	// slice suspends it mid-run on any host.
	jb, err := a.c.SubmitJob(ctx, &server.Request{Model: "nsdp", Size: 8, Engine: "exhaustive", TimeoutMS: 10})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	sus := waitJob(t, a.c, jb.ID, jobs.Checkpointed)
	if _, err := os.Stat(sus.CkptPath); err != nil {
		t.Fatalf("checkpoint of the suspended job %+v: %v", sus.Record, err)
	}
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	a.cmd.Wait()

	b := startDaemon(t, args...)
	if out := b.stdout.String(); !strings.Contains(out, "resumed 1 interrupted job(s)") {
		t.Fatalf("restarted daemon did not re-admit the job; stdout:\n%s", out)
	}
	if list, err := b.c.Jobs(ctx); err != nil || len(list) != 1 || list[0].ID != jb.ID {
		t.Fatalf("job list after restart: %+v, %v", list, err)
	}
	// The stored request keeps its 10 ms slice: step it home like a client.
	fin := waitJob(t, b.c, jb.ID, jobs.Checkpointed, jobs.Done)
	for fin.State != jobs.Done {
		// A 409 is the window of ROADMAP 5(a) — the record settles before the
		// worker lets go of the job — and TestE2EJobRestartResume is its
		// reproducer; this test asks again.
		var ae *client.APIError
		if _, err := b.c.ResumeJob(ctx, jb.ID); err != nil && !(errors.As(err, &ae) && ae.StatusCode == http.StatusConflict) {
			t.Fatalf("resume: %v", err)
		}
		fin = waitJob(t, b.c, jb.ID, jobs.Checkpointed, jobs.Done)
	}
	if fin.Resumes == 0 {
		t.Fatalf("job finished without ever resuming from its checkpoint: %+v", fin.Record)
	}
	var res server.Response
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	fresh, err := verify.CheckDeadlock(models.NSDP(8), verify.Options{Engine: verify.Exhaustive})
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if res.Status != server.StatusOK || res.States != fresh.States ||
		res.Deadlock != fresh.Deadlock || res.Complete != fresh.Complete {
		t.Fatalf("resumed verdict %+v differs from a fresh run's states=%d deadlock=%v complete=%v",
			res, fresh.States, fresh.Deadlock, fresh.Complete)
	}

	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := b.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stdout:\n%s", err, b.stdout)
	}
	if out := b.stdout.String(); !strings.Contains(out, "gpod: drained, bye") {
		t.Fatalf("no drain farewell; stdout:\n%s", out)
	}

	// Both daemons journaled to the one ledger; gpostat -history reads it
	// with ledger.Read.
	entries, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		found = found || (e.Net == "NSDP(4)" && e.Engine == "gpo" && e.Verdict() == "deadlock")
	}
	if !found {
		t.Fatalf("ledger holds no NSDP(4) gpo deadlock entry: %+v", entries)
	}
}

// TestDirTraceSink: the -trace-dump sink returns the path of the Chrome
// trace JSON it wrote, and "" when it could not write one, so a ledger
// entry never names a dump that does not exist.
func TestDirTraceSink(t *testing.T) {
	tr := trace.New(trace.Options{Cap: 8})
	tr.SetMeta("request_id", "req-1")
	tr.NewTrack("reach").State(0, 0)
	dir := t.TempDir()
	path := dirTraceSink(dir)("req-1", tr.Dump())
	if path != filepath.Join(dir, "req-1.trace.json") {
		t.Fatalf("sink wrote %q, want <dir>/req-1.trace.json", path)
	}
	d, err := trace.ReadFile(path)
	if err != nil || d.Meta["request_id"] != "req-1" {
		t.Fatalf("dump at %s: %v, meta %v", path, err, d)
	}
	if got := dirTraceSink(filepath.Join(dir, "missing"))("req-2", tr.Dump()); got != "" {
		t.Fatalf("sink into a missing directory returned %q, want \"\"", got)
	}
}
