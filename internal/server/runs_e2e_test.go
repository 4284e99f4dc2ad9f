package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/ledger"
	"repro/internal/obs/trace"
	"repro/internal/server"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE parses an event stream until EOF or max events.
func readSSE(t *testing.T, r io.Reader, max int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
				if len(out) >= max {
					return out
				}
				cur = sseEvent{}
			}
		}
	}
	return out
}

type doneEventWire struct {
	RunID    string `json:"run_id"`
	Status   string `json:"status"`
	Deadlock bool   `json:"deadlock"`
	States   int64  `json:"states"`
	Complete bool   `json:"complete"`
	WallNS   int64  `json:"wall_ns"`
}

type progressEventWire struct {
	RunID     string `json:"run_id"`
	States    int64  `json:"states"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Final     bool   `json:"final"`
}

// runLine extends accessLine with the run-join fields.
type runLine struct {
	accessLine
	RunID       string `json:"run_id"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
}

func decodeRunLine(t *testing.T, buf *syncBuffer, id string) runLine {
	t.Helper()
	waitForLogLine(t, buf, id) // poll until the line exists
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var line runLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("unparseable access log line %q: %v", sc.Text(), err)
		}
		if line.RequestID == id {
			return line
		}
	}
	t.Fatalf("no access log line for %q", id)
	return runLine{}
}

// TestE2EAbortedRunReconstructable is the ISSUE 6 acceptance pin: a
// deadline-aborted daemon run must be fully reconstructable after the
// fact — its ledger entry, access-log line, and trace dump all join on
// one content-addressed run ID, and the run surface serves it.
func TestE2EAbortedRunReconstructable(t *testing.T) {
	dir := t.TempDir()
	ldgPath := filepath.Join(dir, "runs.jsonl")
	ldg, err := ledger.Open(ldgPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ldg.Close() }) // after the server, which start closes
	logBuf := &syncBuffer{}
	ts := start(t, server.Config{
		Workers:   1,
		AccessLog: logBuf,
		Ledger:    ldg,
		TraceSink: func(id string, d *trace.Dump) string {
			path := filepath.Join(dir, id+".trace.json")
			if err := trace.WriteFile(path, d); err != nil {
				t.Errorf("trace sink: %v", err)
				return ""
			}
			return path
		},
	})

	const id = "recon-1"
	body := `{"model":"nsdp","size":10,"engine":"exhaustive","timeout_ms":50}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", id)
	hr, err := ts.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	var resp server.Response
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatalf("response: %v (%s)", err, respBody)
	}
	if resp.Status != server.StatusAborted {
		t.Skipf("nsdp(10) completed within 50ms on this machine: %+v", resp)
	}

	// 1. The access log line carries the run ID.
	line := decodeRunLine(t, logBuf, id)
	if line.RunID == "" || !strings.HasPrefix(line.RunID, "r") {
		t.Fatalf("access log run_id = %q", line.RunID)
	}
	if line.Outcome != server.StatusAborted {
		t.Fatalf("access log outcome = %q", line.Outcome)
	}

	// 2. The ledger entry joins on the same run ID and request ID, and
	// points at the trace dump.
	entries, err := ledger.Read(ldgPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.RunID != line.RunID {
		t.Fatalf("ledger run_id %q != access log run_id %q", e.RunID, line.RunID)
	}
	if e.RequestID != id || e.Source != "gpod" {
		t.Fatalf("ledger identity: %+v", e)
	}
	if e.Status != "aborted" || e.AbortReason != "deadline" || e.Complete {
		t.Fatalf("ledger outcome: %+v", e)
	}
	if e.States <= 0 || e.WallNS <= 0 || e.EndUnixNS <= e.StartUnixNS {
		t.Fatalf("ledger measurements: %+v", e)
	}
	if e.Metrics["reach.states"] != e.States {
		t.Fatalf("ledger metrics snapshot reach.states=%d, entry states=%d",
			e.Metrics["reach.states"], e.States)
	}
	if e.Verdict() != "aborted" {
		t.Fatalf("verdict = %q", e.Verdict())
	}

	// 3. The trace dump exists at the ledgered path and carries the same
	// run ID in its meta.
	if e.TracePath == "" {
		t.Fatal("ledger entry has no trace path")
	}
	d, err := trace.ReadFile(e.TracePath)
	if err != nil {
		t.Fatalf("ledgered trace dump: %v", err)
	}
	if d.Meta["run_id"] != e.RunID || d.Meta["request_id"] != id {
		t.Fatalf("trace meta does not join: %+v", d.Meta)
	}

	// 4. The run surface serves the completed run: in the /v1/runs list,
	// by ID, and as a terminal SSE event.
	var list struct {
		Running   []json.RawMessage `json:"running"`
		Completed []ledger.Entry    `json:"completed"`
	}
	get := func(path string, v any) int {
		t.Helper()
		hr, err := ts.HTTP.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		b, _ := io.ReadAll(hr.Body)
		if v != nil && hr.StatusCode == http.StatusOK {
			if err := json.Unmarshal(b, v); err != nil {
				t.Fatalf("GET %s: %v (%s)", path, err, b)
			}
		}
		return hr.StatusCode
	}
	if code := get("/v1/runs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/runs: %d", code)
	}
	if len(list.Running) != 0 || len(list.Completed) != 1 || list.Completed[0].RunID != e.RunID {
		t.Fatalf("/v1/runs = running:%d completed:%+v", len(list.Running), list.Completed)
	}
	var byID ledger.Entry
	if code := get("/v1/runs/"+e.RunID, &byID); code != http.StatusOK {
		t.Fatalf("GET /v1/runs/{id}: %d", code)
	}
	if byID.RunID != e.RunID || byID.Status != "aborted" {
		t.Fatalf("/v1/runs/{id} = %+v", byID)
	}
	if code := get("/v1/runs/rdoesnotexist", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown run: %d, want 404", code)
	}

	hr, err = ts.HTTP.Get(ts.URL + "/v1/runs/" + e.RunID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	evs := readSSE(t, hr.Body, 4)
	if len(evs) != 1 || evs[0].event != "done" {
		t.Fatalf("SSE on completed run = %+v, want one done event", evs)
	}
	var done doneEventWire
	if err := json.Unmarshal(evs[0].data, &done); err != nil {
		t.Fatal(err)
	}
	if done.RunID != e.RunID || done.Status != "aborted" || done.States != e.States {
		t.Fatalf("done event %+v does not match ledger %+v", done, e)
	}
}

// TestE2EAbortedRunFailedDump: when the trace sink writes no dump, the
// aborted run's ledger entry names no trace path, rather than a file
// that does not exist.
func TestE2EAbortedRunFailedDump(t *testing.T) {
	ldgPath := filepath.Join(t.TempDir(), "runs.jsonl")
	ldg, err := ledger.Open(ldgPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ldg.Close() })
	var sinkCalls atomic.Int32
	ts := start(t, server.Config{
		Workers: 1,
		Ledger:  ldg,
		TraceSink: func(id string, d *trace.Dump) string {
			sinkCalls.Add(1)
			return "" // the dump could not be written
		},
	})
	resp, err := ts.Client.Verify(context.Background(), &server.Request{
		Model: "nsdp", Size: 10, Engine: "exhaustive", TimeoutMS: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusAborted {
		t.Skipf("nsdp(10) completed within 50ms on this machine: %+v", resp)
	}
	entries, err := ledger.Read(ldgPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Status != "aborted" {
		t.Fatalf("ledger = %+v, want one aborted entry", entries)
	}
	if n := sinkCalls.Load(); n != 1 {
		t.Fatalf("trace sink called %d times, want 1", n)
	}
	if p := entries[0].TracePath; p != "" {
		t.Fatalf("ledger trace_path = %q after a failed dump, want empty", p)
	}
}

// TestE2ERunEventsStates pins the acceptance criterion that the SSE
// terminal event of a completed run reports exactly the run's final
// reach.states metric — streaming is an observer of the same numbers,
// never a second bookkeeping.
func TestE2ERunEventsStates(t *testing.T) {
	ldgPath := filepath.Join(t.TempDir(), "runs.jsonl")
	ldg, err := ledger.Open(ldgPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ldg.Close() }) // after the server, which start closes
	ts := start(t, server.Config{Workers: 1, Ledger: ldg})
	reg := ts.Metrics

	body := `{"model":"nsdp","size":4,"engine":"exhaustive"}`
	hr, err := ts.HTTP.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if resp.Status != server.StatusOK || resp.States != 322 {
		t.Fatalf("verify: %+v", resp)
	}

	entries, err := ledger.Read(ldgPath)
	if err != nil || len(entries) != 1 {
		t.Fatalf("ledger: %v, %d entries", err, len(entries))
	}
	e := entries[0]
	runStates := reg.Counter("reach.states").Value()
	if runStates != 322 {
		t.Fatalf("process reach.states = %d, want 322", runStates)
	}
	if e.States != runStates || e.Metrics["reach.states"] != runStates {
		t.Fatalf("ledger states %d / metrics %d != reach.states %d",
			e.States, e.Metrics["reach.states"], runStates)
	}
	if e.Status != "ok" || !e.Complete || e.Verdict() != "deadlock" {
		t.Fatalf("ledger outcome: %+v", e)
	}

	// The run surface serves the same entry, listed and by ID.
	for _, path := range []string{"/v1/runs", "/v1/runs/" + e.RunID} {
		hr, err := ts.HTTP.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			ledger.Entry
			Completed []ledger.Entry `json:"completed"`
		}
		err = json.NewDecoder(hr.Body).Decode(&got)
		hr.Body.Close()
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: code=%d err=%v", path, hr.StatusCode, err)
		}
		served := got.Entry
		if len(got.Completed) == 1 {
			served = got.Completed[0]
		}
		if served.RunID != e.RunID || served.Verdict() != "deadlock" || served.States != int64(resp.States) {
			t.Fatalf("GET %s serves %+v, want run %s deadlock/%d", path, served, e.RunID, resp.States)
		}
	}

	hr, err = ts.HTTP.Get(ts.URL + "/v1/runs/" + e.RunID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	evs := readSSE(t, hr.Body, 4)
	if len(evs) != 1 || evs[0].event != "done" {
		t.Fatalf("SSE = %+v", evs)
	}
	var done doneEventWire
	if err := json.Unmarshal(evs[0].data, &done); err != nil {
		t.Fatal(err)
	}
	if done.States != runStates {
		t.Fatalf("SSE done event states = %d, reach.states = %d", done.States, runStates)
	}
	if done.Status != "ok" || !done.Complete || !done.Deadlock {
		t.Fatalf("done event: %+v", done)
	}

	// A cache hit is not a run: repeating the request adds no ledger
	// entry but its access-joinable run ID is the same content address.
	hr, err = ts.HTTP.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	entries, _ = ledger.Read(ldgPath)
	if len(entries) != 1 {
		t.Fatalf("cache hit appended a ledger entry: %d entries", len(entries))
	}
}

// TestE2ERunEventsLiveStream drives the live half of the run surface:
// while a long exploration occupies the only worker, the run appears in
// GET /v1/runs as running, two SSE subscribers stream its progress
// concurrently, a quick second request records a positive queue wait,
// and everyone sees the same terminal verdict.
func TestE2ERunEventsLiveStream(t *testing.T) {
	ldgPath := filepath.Join(t.TempDir(), "runs.jsonl")
	ldg, err := ledger.Open(ldgPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ldg.Close() }) // after the server, which start closes
	logBuf := &syncBuffer{}
	ts := start(t, server.Config{
		Workers:   1,
		Ledger:    ldg,
		AccessLog: logBuf,
	})

	// Kick off a run long enough to observe live: nsdp(10) either takes
	// a while or aborts at 5s — both produce progress and a verdict.
	type result struct {
		resp server.Response
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		body := `{"model":"nsdp","size":10,"engine":"exhaustive","timeout_ms":5000}`
		hr, err := ts.HTTP.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer hr.Body.Close()
		var r result
		r.err = json.NewDecoder(hr.Body).Decode(&r.resp)
		resCh <- r
	}()

	// Wait for the run to surface on /v1/runs.
	var runID string
	deadline := time.Now().Add(10 * time.Second)
	for runID == "" && time.Now().Before(deadline) {
		var list struct {
			Running []struct {
				RunID string `json:"run_id"`
				State string `json:"state"`
				Net   string `json:"net"`
			} `json:"running"`
		}
		hr, err := ts.HTTP.Get(ts.URL + "/v1/runs")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(hr.Body).Decode(&list)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range list.Running {
			if r.Net == "NSDP(10)" {
				runID = r.RunID
			}
		}
		time.Sleep(time.Millisecond)
	}
	if runID == "" {
		t.Skip("run finished before it could be observed live")
	}

	// While the worker is busy, a second request must wait in the queue
	// and record that wait in its access log line.
	quickCh := make(chan error, 1)
	go func() {
		body := `{"model":"nsdp","size":4,"engine":"gpo"}`
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(body))
		req.Header.Set("X-Request-ID", "queued-1")
		hr, err := ts.HTTP.Do(req)
		if err == nil {
			io.Copy(io.Discard, hr.Body)
			hr.Body.Close()
		}
		quickCh <- err
	}()

	// Two concurrent subscribers on the same live run.
	stream := func() ([]sseEvent, error) {
		hr, err := ts.HTTP.Get(ts.URL + "/v1/runs/" + runID + "/events")
		if err != nil {
			return nil, err
		}
		defer hr.Body.Close()
		return readSSE(t, hr.Body, 1_000_000), nil
	}
	type streamed struct {
		evs []sseEvent
		err error
	}
	subCh := make(chan streamed, 2)
	for i := 0; i < 2; i++ {
		go func() {
			evs, err := stream()
			subCh <- streamed{evs, err}
		}()
	}

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	for i := 0; i < 2; i++ {
		st := <-subCh
		if st.err != nil {
			t.Fatal(st.err)
		}
		if len(st.evs) == 0 {
			t.Fatal("subscriber saw no events")
		}
		last := st.evs[len(st.evs)-1]
		if last.event != "done" {
			t.Fatalf("stream did not end with done: last=%+v", last)
		}
		var done doneEventWire
		if err := json.Unmarshal(last.data, &done); err != nil {
			t.Fatal(err)
		}
		if done.RunID != runID || done.States != int64(res.resp.States) {
			t.Fatalf("done event %+v vs response %+v", done, res.resp)
		}
		var progress int
		for _, ev := range st.evs[:len(st.evs)-1] {
			if ev.event != "progress" {
				t.Fatalf("unexpected event %q mid-stream", ev.event)
			}
			var p progressEventWire
			if err := json.Unmarshal(ev.data, &p); err != nil {
				t.Fatal(err)
			}
			if p.RunID != runID {
				t.Fatalf("progress event for %q on stream of %q", p.RunID, runID)
			}
			progress++
		}
		if progress == 0 {
			t.Error("live subscriber saw no progress events before the verdict")
		}
	}

	// The queued request's line joins and shows it waited.
	if err := <-quickCh; err != nil {
		t.Fatal(err)
	}
	line := decodeRunLine(t, logBuf, "queued-1")
	if line.RunID == "" {
		t.Fatalf("queued request line has no run_id: %+v", line)
	}
	if line.QueueWaitNS <= 0 {
		t.Errorf("queued request queue_wait_ns = %d, want > 0", line.QueueWaitNS)
	}
}

// TestE2ERunStatusUnwatched pins that live status is exact for a run
// nobody streams: polled on GET /v1/runs/{id} with no SSE subscriber, a
// long exploration reports a positive, non-decreasing state count and
// elapsed time, never above the count of its final response.
func TestE2ERunStatusUnwatched(t *testing.T) {
	ts := start(t, server.Config{Workers: 1})
	type result struct {
		resp server.Response
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		body := `{"model":"nsdp","size":10,"engine":"exhaustive","timeout_ms":1500}`
		hr, err := ts.HTTP.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer hr.Body.Close()
		var r result
		r.err = json.NewDecoder(hr.Body).Decode(&r.resp)
		resCh <- r
	}()

	type status struct {
		RunID     string `json:"run_id"`
		State     string `json:"state"`
		Net       string `json:"net"`
		States    int64  `json:"states"`
		ElapsedNS int64  `json:"elapsed_ns"`
	}
	get := func(path string, v any) int {
		hr, err := ts.HTTP.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		if hr.StatusCode == http.StatusOK {
			if err := json.NewDecoder(hr.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		return hr.StatusCode
	}
	var runID string
	for deadline := time.Now().Add(10 * time.Second); runID == "" && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var list struct {
			Running []status `json:"running"`
		}
		get("/v1/runs", &list)
		for _, r := range list.Running {
			if r.Net == "NSDP(10)" && r.State == "running" {
				runID = r.RunID
			}
		}
	}
	if runID == "" {
		t.Fatal("run never showed as running on /v1/runs")
	}

	var samples []status
	var res result
poll:
	for {
		select {
		case res = <-resCh:
			break poll
		case <-time.After(50 * time.Millisecond):
			var st status
			if get("/v1/runs/"+runID, &st) == http.StatusOK && st.RunID == runID {
				samples = append(samples, st)
			}
		}
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(samples) < 5 {
		t.Fatalf("only %d live samples of a 1.5 s run", len(samples))
	}
	var prev int64
	for i, st := range samples {
		if st.ElapsedNS <= 0 || st.States < prev || st.States > int64(res.resp.States) {
			t.Fatalf("sample %d of %d: states=%d elapsed_ns=%d (previous %d, final %d)",
				i, len(samples), st.States, st.ElapsedNS, prev, res.resp.States)
		}
		prev = st.States
	}
	if prev <= 0 {
		t.Fatalf("unwatched run reported states=%d throughout", prev)
	}
}
