package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/ledger"
	"repro/internal/server"
	"repro/internal/server/servertest"
)

// TestRetryInCapped pins the -follow reconnect backoff: exponential in
// the poll interval, capped at maxFollowBackoff, and never zero or
// negative even for absurd failure counts (shift overflow).
func TestRetryInCapped(t *testing.T) {
	iv := time.Second
	cases := []struct {
		fails int
		want  time.Duration
	}{
		{1, time.Second},
		{2, 2 * time.Second},
		{3, 4 * time.Second},
		{5, 16 * time.Second},
		{6, 30 * time.Second}, // 32s capped
		{10, 30 * time.Second},
		{1000, 30 * time.Second},
	}
	for _, tc := range cases {
		if got := retryIn(iv, tc.fails); got != tc.want {
			t.Errorf("retryIn(1s, %d) = %v, want %v", tc.fails, got, tc.want)
		}
	}
	if got := retryIn(time.Hour, 3); got != maxFollowBackoff {
		t.Errorf("retryIn(1h, 3) = %v, want cap %v", got, maxFollowBackoff)
	}
}

// TestFollowOnceSemantics: -once against a live daemon succeeds even
// when an earlier poll of the same process had failed (transient errors
// must not be sticky), and -once against an unreachable single address
// is an error — there is no later tick to reconnect on.
func TestFollowOnceSemantics(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cluster" {
			json.NewEncoder(w).Encode(map[string]any{"enabled": false})
			return
		}
		calls.Add(1)
		json.NewEncoder(w).Encode(runsWire{})
	}))
	defer ts.Close()

	if err := followRuns([]string{ts.URL}, "", nil, time.Millisecond, true); err != nil {
		t.Fatalf("follow -once against live daemon: %v", err)
	}
	if calls.Load() == 0 {
		t.Fatal("follow -once never polled /v1/runs")
	}

	ts.Close()
	if err := followRuns([]string{ts.URL}, "", nil, time.Millisecond, true); err == nil {
		t.Fatal("follow -once against dead daemon should error")
	}
}

// TestHistoryTraceMarker: configurations with at least one traced run
// (a TracePath) carry the trace=yes marker in -history output; untraced
// configurations stay unmarked.
func TestHistoryTraceMarker(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	lg, err := ledger.Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := ledger.Entry{
		Schema: ledger.Schema, Source: "gpod", Check: "deadlock",
		Status: "ok", Complete: true, States: 322,
		StartUnixNS: 1, EndUnixNS: 2, WallNS: 1e6,
	}
	traced := base
	traced.RunID, traced.Net, traced.Engine = "r1", "NSDP(4)", "exhaustive"
	traced.TracePath = "traces/r1.trace.json"
	plain := base
	plain.RunID, plain.Net, plain.Engine = "r2", "RW(6)", "gpo"
	for _, e := range []ledger.Entry{traced, plain} {
		if err := lg.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	histErr := printHistory(path, nil)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if histErr != nil {
		t.Fatalf("printHistory: %v", histErr)
	}
	var nsdpLine, rwLine string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "NSDP(4)") {
			nsdpLine = line
		}
		if strings.HasPrefix(line, "RW(6)") {
			rwLine = line
		}
	}
	if !strings.HasSuffix(nsdpLine, "trace=yes") {
		t.Errorf("traced group line lacks trace=yes marker: %q", nsdpLine)
	}
	if rwLine == "" || strings.Contains(rwLine, "trace=yes") {
		t.Errorf("untraced group line wrong: %q", rwLine)
	}
}

// TestRunStreamsProgress: -run against a live daemon run prints the
// run's progress samples and ends with the verdict line, whose states
// are the daemon's response's.
func TestRunStreamsProgress(t *testing.T) {
	ts, err := servertest.Start(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	resCh := make(chan *server.Response, 1)
	go func() {
		resp, err := ts.Client.Verify(context.Background(), &server.Request{
			Model: "nsdp", Size: 10, Engine: "exhaustive", TimeoutMS: 1000})
		if err != nil {
			t.Error(err)
		}
		resCh <- resp
	}()
	var id string
	for deadline := time.Now().Add(10 * time.Second); id == "" && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var runs runsWire
		if err := getJSON(ts.URL+"/v1/runs", &runs); err != nil {
			t.Fatal(err)
		}
		for _, r := range runs.Running {
			id = r.RunID
		}
	}
	if id == "" {
		t.Fatal("run never showed on /v1/runs")
	}

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	streamErr := streamRun(ts.URL, id)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if streamErr != nil {
		t.Fatalf("streamRun: %v\n%s", streamErr, out)
	}
	resp := <-resCh
	if resp == nil {
		t.Fatal("no response")
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		t.Fatalf("want progress lines before the verdict, got:\n%s", out)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, id+" states=") {
			t.Errorf("not a progress line: %q", l)
		}
	}
	want := fmt.Sprintf("%s done status=%s deadlock=%v states=%d ", id, resp.Status, resp.Deadlock, resp.States)
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, want) {
		t.Errorf("verdict line %q, want prefix %q", last, want)
	}
}
