package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/server"
)

// syncBuffer is an access-log writer the test can read while handlers
// are still logging: the server serializes its writes, but reads from
// the test goroutine race them without this lock.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// dumpCollector is a TraceSink capturing abort dumps by request ID.
type dumpCollector struct {
	mu    sync.Mutex
	dumps map[string]*trace.Dump
}

func newDumpCollector() *dumpCollector {
	return &dumpCollector{dumps: make(map[string]*trace.Dump)}
}

func (c *dumpCollector) sink(id string, d *trace.Dump) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dumps[id] = d
	return ""
}

func (c *dumpCollector) get(id string) *trace.Dump {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dumps[id]
}

// accessLine is the subset of the access-log schema the tests decode.
type accessLine struct {
	TS        string `json:"ts"`
	RequestID string `json:"request_id"`
	Code      int    `json:"code"`
	Engine    string `json:"engine"`
	Net       string `json:"net"`
	Check     string `json:"check"`
	States    int    `json:"states"`
	WallNS    int64  `json:"wall_ns"`
	Outcome   string `json:"outcome"`
	CacheHit  bool   `json:"cache_hit"`
}

// waitForLogLine polls the access log until a line for the given
// request ID appears: the handler writes its entry after the response
// body, so the client can be ahead of the log by a scheduling beat.
func waitForLogLine(t *testing.T, buf *syncBuffer, id string) accessLine {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sc := bufio.NewScanner(strings.NewReader(buf.String()))
		for sc.Scan() {
			var line accessLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("unparseable access log line %q: %v", sc.Text(), err)
			}
			if line.RequestID == id {
				return line
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no access log line for request %q in %q", id, buf.String())
	return accessLine{}
}

// TestE2EAbortDumpJoinsAccessLog is the abort-path acceptance test: a
// deadline-limited nsdp(10) request aborts mid-exploration, the flight
// recorder's tail reaches the trace sink keyed by the same request ID
// that the response header echoes and the access log records, the tail
// is non-empty and parseable, and its last event is the abort marker.
func TestE2EAbortDumpJoinsAccessLog(t *testing.T) {
	logBuf := &syncBuffer{}
	dumps := newDumpCollector()
	ts := start(t, server.Config{
		Workers:   1,
		AccessLog: logBuf,
		TraceSink: dumps.sink,
	})

	const id = "abort-join-1"
	body := `{"model":"nsdp","size":10,"engine":"exhaustive","timeout_ms":50}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", id)
	hr, err := ts.HTTP.Do(req)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	respBody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("verify: %d %s", hr.StatusCode, respBody)
	}
	if got := hr.Header.Get("X-Request-ID"); got != id {
		t.Fatalf("X-Request-ID echoed as %q, want %q", got, id)
	}
	var resp server.Response
	if err := json.Unmarshal(respBody, &resp); err != nil {
		t.Fatalf("response body: %v", err)
	}
	if resp.Status != server.StatusAborted {
		t.Skipf("nsdp(10) completed within 50ms on this machine: %+v", resp)
	}

	// The worker calls the sink before answering, so the dump is
	// already there once the client has the response.
	d := dumps.get(id)
	if d == nil {
		t.Fatalf("no trace dump for aborted request %q", id)
	}
	if got := d.Meta["request_id"]; got != id {
		t.Fatalf("dump meta request_id = %q, want %q", got, id)
	}
	if d.Meta["engine"] != "exhaustive" || d.Meta["check"] != server.CheckDeadlock {
		t.Fatalf("dump meta: %+v", d.Meta)
	}
	events, aborts := 0, 0
	for _, tk := range d.Tracks {
		events += len(tk.Events)
		for i, ev := range tk.Events {
			if ev.Kind == trace.KindAbort {
				aborts++
				if i != len(tk.Events)-1 {
					t.Errorf("track %q: abort event at %d of %d, want terminal",
						tk.Name, i, len(tk.Events))
				}
			}
		}
	}
	if events == 0 {
		t.Fatal("abort dump has no events")
	}
	if aborts != 1 {
		t.Fatalf("abort dump has %d abort events, want 1", aborts)
	}

	// The dump round-trips through Chrome trace JSON (what gpod
	// -trace-dump writes and gpotrace reads).
	var wire bytes.Buffer
	if err := trace.WriteChrome(&wire, d); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	back, err := trace.ReadDump(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	sum := trace.Summarize(back, 5)
	if !sum.Aborted || sum.AbortReason == "" {
		t.Fatalf("summary of the dump: aborted=%v reason=%q", sum.Aborted, sum.AbortReason)
	}
	if sum.States <= 0 {
		t.Fatalf("summary reconstructed %d states from an aborted run, want > 0", sum.States)
	}

	// The access log line joins on the same ID and reports the abort.
	line := waitForLogLine(t, logBuf, id)
	if line.Outcome != server.StatusAborted || line.Code != http.StatusOK {
		t.Fatalf("access log: %+v", line)
	}
	if line.Engine != "exhaustive" || line.Check != server.CheckDeadlock || line.Net != "NSDP(10)" {
		t.Fatalf("access log identity fields: %+v", line)
	}
	if line.States <= 0 || line.WallNS <= 0 || line.TS == "" {
		t.Fatalf("access log measurements: %+v", line)
	}
	if line.CacheHit {
		t.Fatalf("aborted first request marked as cache hit: %+v", line)
	}
}

// TestE2EAccessLogOutcomes pins the access log across the handler's
// exits: ok, cached, and bad_request, with server-generated IDs when
// the client names none (or an unusable one).
func TestE2EAccessLogOutcomes(t *testing.T) {
	logBuf := &syncBuffer{}
	ts := start(t, server.Config{Workers: 1, AccessLog: logBuf})
	c := ts.Client
	ctx := context.Background()

	post := func(id, body string) (string, *http.Response) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		hr, err := ts.HTTP.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
		return hr.Header.Get("X-Request-ID"), hr
	}

	okBody := `{"model":"nsdp","size":4,"engine":"gpo"}`
	id1, hr := post("ok-1", okBody)
	if id1 != "ok-1" || hr.StatusCode != http.StatusOK {
		t.Fatalf("ok request: id=%q code=%d", id1, hr.StatusCode)
	}
	line := waitForLogLine(t, logBuf, "ok-1")
	if line.Outcome != "ok" || line.States != 3 || line.CacheHit {
		t.Fatalf("ok line: %+v", line)
	}

	// Identical request again: served from the cache, logged as such.
	id2, _ := post("ok-2", okBody)
	if id2 != "ok-2" {
		t.Fatalf("cached request echoed id %q", id2)
	}
	line = waitForLogLine(t, logBuf, "ok-2")
	if line.Outcome != "cached" || !line.CacheHit || line.States != 3 {
		t.Fatalf("cached line: %+v", line)
	}

	// A client ID with a path separator is unusable as a dump file
	// name: the server substitutes a generated one.
	id3, hr := post("../evil", okBody)
	if id3 == "" || id3 == "../evil" || hr.StatusCode != http.StatusOK {
		t.Fatalf("hostile ID handling: echoed %q, code %d", id3, hr.StatusCode)
	}
	line = waitForLogLine(t, logBuf, id3)
	if line.Outcome != "cached" {
		t.Fatalf("generated-ID line: %+v", line)
	}

	id4, hr := post("", `{"model":"nope"}`)
	if id4 == "" || hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request: id=%q code=%d", id4, hr.StatusCode)
	}
	line = waitForLogLine(t, logBuf, id4)
	if line.Outcome != "bad_request" || line.Code != http.StatusBadRequest || line.Engine != "" {
		t.Fatalf("bad_request line: %+v", line)
	}

	// The plain client still works against a logging server.
	if _, err := c.Verify(ctx, &server.Request{Model: "nsdp", Size: 4, Engine: "gpo"}); err != nil {
		t.Fatalf("client verify: %v", err)
	}
}

// TestE2EMetricsPromFormat pins the /metrics?format=prom endpoint: the
// Prometheus text exposition with the content type scrapers expect,
// carrying the same server.* counters as the JSON snapshot.
func TestE2EMetricsPromFormat(t *testing.T) {
	ts := start(t, server.Config{Workers: 1})
	c := ts.Client
	ctx := context.Background()
	if _, err := c.Verify(ctx, &server.Request{Model: "nsdp", Size: 4, Engine: "exhaustive"}); err != nil {
		t.Fatalf("verify: %v", err)
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("JSON metrics: %v", err)
	}
	if snap.Counters["server.done"] != 1 {
		t.Fatalf("JSON snapshot: %+v", snap.Counters)
	}

	hr, err := ts.HTTP.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("prom metrics: %v", err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("prom metrics: %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content type %q", ct)
	}
	body, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE server_done counter",
		"server_done 1",
		"server_requests 1",
		"reach_states 322",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
	for _, ln := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(ln, "#") || ln == "" {
			continue
		}
		if fields := strings.Fields(ln); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", ln)
		}
	}
}

// TestE2EMetricsKeepNoRunSpans pins that the process registry behind
// /metrics does not grow with the runs it has served: each run's spans
// stay on its own registry, and only counters, gauges and histograms
// fold into the process totals.
func TestE2EMetricsKeepNoRunSpans(t *testing.T) {
	c, _ := startService(t, server.Config{Workers: 1})
	ctx := context.Background()
	for size := 3; size <= 6; size++ {
		if _, err := c.Verify(ctx, &server.Request{Model: "nsdp", Size: size, Engine: "exhaustive"}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["reach.states"] == 0 {
		t.Fatalf("four runs folded no reach.states into /metrics: %v", snap.Counters)
	}
	if len(snap.Spans) != 0 {
		t.Fatalf("/metrics holds %d spans after four runs, want none", len(snap.Spans))
	}
}
