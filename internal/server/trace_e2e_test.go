package server_test

// End-to-end tests of the tracing surface: GET /v1/runs/{id}/trace
// serves a one-entry bundle for a retained run, on a single server and
// on the fleet member that executed a cluster run, and the dump
// reconstructs the exact state count; durable jobs stamp lifecycle
// events onto the run's "job" track; and retention-off servers answer
// 404 rather than empty bundles.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/jobs"
	"repro/internal/obs/trace"
	"repro/internal/server"
)

// fetchBundle GETs /v1/runs/{id}/trace and parses the bundle.
func fetchBundle(t *testing.T, base, id string) *trace.Bundle {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET trace: %d: %s", resp.StatusCode, body)
	}
	b, err := trace.ReadBundle(resp.Body)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	return b
}

func TestE2ERunTraceEndpoint(t *testing.T) {
	ts := start(t, server.Config{Workers: 2, TraceRuns: 2})
	base, reg := ts.URL, ts.Metrics
	ctx := context.Background()

	resp, err := ts.Client.Verify(ctx, &server.Request{Model: "nsdp", Size: 4, Engine: "exhaustive"})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if resp.Status != server.StatusOK || resp.States != 322 {
		t.Fatalf("verify: %+v", resp)
	}
	if resp.RunID == "" {
		t.Fatal("response carries no run_id to fetch the trace by")
	}

	b := fetchBundle(t, base, resp.RunID)
	if b.RunID != resp.RunID || len(b.Peers) != 1 {
		t.Fatalf("bundle: run=%q peers=%d, want run=%q peers=1", b.RunID, len(b.Peers), resp.RunID)
	}
	p := b.Peers[0]
	if !p.Coordinator || p.Addr != "local" {
		t.Fatalf("bundle peer: %+v, want local coordinator", p)
	}
	if p.Dump.Meta["run_id"] != resp.RunID || p.Dump.Meta["engine"] == "" {
		t.Fatalf("dump meta: %+v", p.Dump.Meta)
	}
	if got := trace.Summarize(b.Peers[0].Dump, 0).States; got != resp.States {
		t.Fatalf("trace reconstructs %d states, response says %d", got, resp.States)
	}
	if g := reg.Snapshot().Gauges["server.trace_runs"]; g != 1 {
		t.Fatalf("server.trace_runs = %d, want 1", g)
	}

	// Unknown run is a 404, not an empty bundle.
	hr, err := http.Get(base + "/v1/runs/no-such-run/trace")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %d, want 404", hr.StatusCode)
	}
}

// TestE2ERunTraceFleet pins where a traced cluster run's trace lives:
// on the member that executed it. Its bundle holds that member's dump
// alone, under the member's address, and the dump reconstructs exactly
// the states the response reports; the other members retain nothing
// for the run.
func TestE2ERunTraceFleet(t *testing.T) {
	f := startFleet(t, 3, server.Config{Workers: 2, TraceRuns: 4})
	coord := f.Peers[0]

	resp, err := coord.Client.Verify(context.Background(), &server.Request{
		Model: "nsdp", Size: 6, Engine: "exhaustive", Cluster: true,
	})
	if err != nil {
		t.Fatalf("traced cluster run: %v", err)
	}
	if resp.Status != server.StatusOK || !resp.Complete || resp.Peers != 3 {
		t.Fatalf("traced cluster run: %+v", resp)
	}
	if resp.RunID == "" {
		t.Fatal("response carries no run_id to fetch the trace by")
	}

	b := fetchBundle(t, coord.URL, resp.RunID)
	if b.RunID != resp.RunID || len(b.Peers) != 1 {
		t.Fatalf("bundle: run=%q entries=%d, want run=%q and the executing member alone", b.RunID, len(b.Peers), resp.RunID)
	}
	if p := b.Peers[0]; p.Addr != coord.URL || !p.Coordinator || p.Dump.Meta["run_id"] != resp.RunID {
		t.Fatalf("bundle entry: addr=%q coordinator=%v meta=%v, want %s's dump of the run", p.Addr, p.Coordinator, p.Dump.Meta, coord.URL)
	}
	if got := trace.Summarize(b.Peers[0].Dump, 0).States; got != resp.States {
		t.Fatalf("trace reconstructs %d states, response says %d", got, resp.States)
	}
	for _, p := range f.Peers[1:] {
		hr, err := http.Get(p.URL + "/v1/runs/" + resp.RunID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusNotFound {
			t.Errorf("member %s serves a trace of a run it did not execute: HTTP %d", p.URL, hr.StatusCode)
		}
	}
}

func TestE2ERunTraceDisabled(t *testing.T) {
	ts := start(t, server.Config{Workers: 2})
	base := ts.URL
	resp, err := ts.Client.Verify(context.Background(), &server.Request{Model: "nsdp", Size: 4, Engine: "exhaustive"})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	hr, err := http.Get(base + "/v1/runs/" + resp.RunID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("retention disabled: %d, want 404", hr.StatusCode)
	}
}

// TestE2EJobTraceLifecycle: a durable job's retained trace carries the
// lifecycle events on its "job" track (slice_begin → done), and the
// jobs.trace_events counter accounts for them.
func TestE2EJobTraceLifecycle(t *testing.T) {
	st, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := start(t, server.Config{Workers: 2, TraceRuns: 2, Jobs: st})
	c, base, reg := ts.Client, ts.URL, ts.Metrics
	ctx := context.Background()

	j, err := c.SubmitJob(ctx, &server.Request{Model: "nsdp", Size: 4, Engine: "exhaustive"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	done := waitJob(t, c, j.ID, jobs.Done)
	var res server.Response
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.RunID == "" {
		t.Fatal("job result carries no run_id")
	}

	b := fetchBundle(t, base, res.RunID)
	var steps []string
	for _, tk := range b.Peers[0].Dump.Tracks {
		if tk.Name != "job" {
			continue
		}
		for _, ev := range tk.Events {
			if ev.Kind == trace.KindJob {
				if ev.Arg0 >= 0 && ev.Arg0 < int64(len(b.Peers[0].Dump.Strings)) {
					steps = append(steps, b.Peers[0].Dump.Strings[ev.Arg0])
				}
			}
		}
	}
	if len(steps) < 2 || steps[0] != "slice_begin" || steps[len(steps)-1] != "done" {
		t.Fatalf("job lifecycle steps = %v, want slice_begin ... done", steps)
	}
	if n := reg.Snapshot().Counters["jobs.trace_events"]; n < int64(len(steps)) {
		t.Fatalf("jobs.trace_events = %d, want ≥ %d", n, len(steps))
	}
}
