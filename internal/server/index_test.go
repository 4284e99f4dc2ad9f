package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/jobs"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pnio"
)

// The body-digest index of the result cache (DESIGN.md D14), driven
// through the handler with no listener in between.

// post sends one request body to path and returns the recorded reply.
func post(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// verifyOK posts body to /v1/verify and decodes the 200 it must get.
func verifyOK(t testing.TB, s *Server, body string) (*Response, string) {
	t.Helper()
	rec := post(t, s, "/v1/verify", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", body, rec.Code, rec.Body)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("reply %q: %v", rec.Body, err)
	}
	return &resp, rec.Body.String()
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func counter(s *Server, name string) int64 { return s.reg.Snapshot().Counters[name] }

// logLines decodes an access log, dropping the three fields that differ
// between any two requests.
func logLines(t *testing.T, log *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(log)
	for sc.Scan() {
		line := map[string]any{}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("access log line %q: %v", sc.Text(), err)
		}
		for _, k := range []string{"ts", "request_id", "wall_ns"} {
			if _, ok := line[k]; !ok {
				t.Fatalf("access log line %q has no %s", sc.Text(), k)
			}
			delete(line, k)
		}
		out = append(out, line)
	}
	return out
}

// TestBodyIndexHitEqualsParsedHit: a reply found by body digest is the
// reply the parsed path gives, byte for byte, and so is its access-log
// line; both count as cache hits.
func TestBodyIndexHitEqualsParsedHit(t *testing.T) {
	var log bytes.Buffer // the recorder runs handlers on this goroutine
	s := newTestServer(t, Config{AccessLog: &log})
	first := `{"model":"nsdp","size":4,"engine":"exhaustive"}`
	respelt := `{"engine":"exhaustive", "model":"nsdp", "size":4}`

	run, _ := verifyOK(t, s, first)
	if run.Cached || counter(s, "server.cache_misses") != 1 {
		t.Fatalf("first request: %+v, %d misses", run, counter(s, "server.cache_misses"))
	}
	parsed, parsedBytes := verifyOK(t, s, respelt)
	if !parsed.Cached || counter(s, "server.cache_body_hits") != 0 {
		t.Fatalf("a new spelling must be a parsed hit: %+v, %d body hits", parsed, counter(s, "server.cache_body_hits"))
	}
	byDigest, digestBytes := verifyOK(t, s, respelt)
	if !byDigest.Cached || counter(s, "server.cache_body_hits") != 1 {
		t.Fatalf("a repeated body must be a digest hit: %+v, %d body hits", byDigest, counter(s, "server.cache_body_hits"))
	}
	if parsedBytes != digestBytes {
		t.Errorf("digest hit replied\n  %s\nparsed hit replied\n  %s", digestBytes, parsedBytes)
	}
	// The body of the run that filled the entry was indexed by the run.
	if _, _ = verifyOK(t, s, first); counter(s, "server.cache_body_hits") != 2 {
		t.Errorf("the computed request's own body was not indexed")
	}
	if hits, misses := counter(s, "server.cache_hits"), counter(s, "server.cache_misses"); hits != 3 || misses != 1 {
		t.Errorf("4 requests counted %d hits and %d misses, want 3 and 1", hits, misses)
	}
	if states := counter(s, "reach.states"); states != 322 {
		t.Errorf("reach.states = %d, want the 322 of one run", states)
	}

	lines := logLines(t, &log)
	if len(lines) != 4 {
		t.Fatalf("%d access log lines, want 4", len(lines))
	}
	want := map[string]any{
		"code": 200.0, "engine": "exhaustive", "net": "NSDP(4)", "check": CheckDeadlock, "states": 322.0,
		"outcome": "cached", "cache_hit": true, "run_id": run.RunID,
	}
	for i, line := range lines[1:] {
		if fmt.Sprint(line) != fmt.Sprint(want) {
			t.Errorf("access log line %d is %v, want %v", i+2, line, want)
		}
	}
}

// TestBodyIndexEvictedWithEntry: with room for two entries, the third
// result evicts the first together with its digest, and the evicted
// body is computed again.
func TestBodyIndexEvictedWithEntry(t *testing.T) {
	body := func(size int) string { return fmt.Sprintf(`{"model":"rw","size":%d,"engine":"gpo"}`, size) }
	probe, _ := verifyOK(t, newTestServer(t, Config{}), body(2))
	one := entrySize(probe) + bodySize
	budget := 2*one + one/2

	s := newTestServer(t, Config{CacheBytes: budget})
	for size := 2; size <= 4; size++ {
		if resp, _ := verifyOK(t, s, body(size)); resp.Cached {
			t.Fatalf("rw(%d) served from an empty cache", size)
		}
	}
	entries, used := s.cache.stats()
	if entries != 2 || s.cache.indexedBodies() != 2 || used > budget {
		t.Fatalf("after three results: %d entries, %d indexed bodies, %d of %d bytes; want 2, 2, within budget",
			entries, s.cache.indexedBodies(), used, budget)
	}
	if resp, _ := verifyOK(t, s, body(4)); !resp.Cached {
		t.Error("the newest entry lost its digest")
	}
	if resp, _ := verifyOK(t, s, body(2)); resp.Cached {
		t.Error("the evicted body was answered from the cache")
	}
	if got := counter(s, "server.cache_evictions"); got != 2 {
		t.Errorf("server.cache_evictions = %d, want 2", got)
	}
	if entries, used := s.cache.stats(); entries != 2 || s.cache.indexedBodies() != 2 || used > budget {
		t.Errorf("after the recomputation: %d entries, %d indexed bodies, %d of %d bytes",
			entries, s.cache.indexedBodies(), used, budget)
	}
}

// TestBodyIndexCappedPerEntry: a thousand spellings of one request
// leave maxBodies digests on its entry, the newest ones, and never take
// the cache over its budget — not even one too small for an entry with
// all its digests.
func TestBodyIndexCappedPerEntry(t *testing.T) {
	fields := []string{`"model":"nsdp"`, `"size":2`, `"engine":"gpo"`}
	variant := func(i int) string {
		order := []string{fields[i%3], fields[(i+1)%3], fields[(i+2)%3]}
		return "{" + strings.Join(order, ","+strings.Repeat(" ", i/3)) + "}" + strings.Repeat("\n", i%2)
	}
	probe, _ := verifyOK(t, newTestServer(t, Config{}), variant(0))
	full := entrySize(probe) + maxBodies*bodySize

	for _, tc := range []struct {
		name   string
		budget int64
	}{{"roomy", 1 << 20}, {"tight", full - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Config{CacheBytes: tc.budget})
			runIDs := map[string]bool{}
			for i := 0; i < 1000; i++ {
				resp, _ := verifyOK(t, s, variant(i))
				runIDs[resp.RunID] = true
				if n := s.cache.indexedBodies(); n > maxBodies {
					t.Fatalf("variant %d: %d bodies indexed, cap is %d", i, n, maxBodies)
				}
				if _, used := s.cache.stats(); used > tc.budget || s.reg.Snapshot().Gauges["server.cache_bytes"] != used {
					t.Fatalf("variant %d: %d bytes used (gauge %d), budget %d",
						i, used, s.reg.Snapshot().Gauges["server.cache_bytes"], tc.budget)
				}
			}
			if len(runIDs) != 1 {
				t.Fatalf("the variants resolved to %d run IDs, want 1", len(runIDs))
			}
			if tc.budget < full {
				return // the entry goes whenever its fourth digest arrives
			}
			if entries, _ := s.cache.stats(); entries != 1 || s.cache.indexedBodies() != maxBodies {
				t.Fatalf("%d entries, %d indexed bodies; want 1, %d", entries, s.cache.indexedBodies(), maxBodies)
			}
			if misses := counter(s, "server.cache_misses"); misses != 1 {
				t.Errorf("%d misses over 1000 spellings of one request, want 1", misses)
			}
			before := counter(s, "server.cache_body_hits")
			if resp, _ := verifyOK(t, s, variant(999)); !resp.Cached || counter(s, "server.cache_body_hits") != before+1 {
				t.Error("the newest spelling is not a digest hit")
			}
			if resp, _ := verifyOK(t, s, variant(0)); !resp.Cached || counter(s, "server.cache_body_hits") != before+1 {
				t.Error("the oldest spelling must fall back to the parsed path, and hit there")
			}
		})
	}
}

// TestBodyIndexKeepsCanonicalSharing: two texts of one net are two
// bodies, one run key, one entry.
func TestBodyIndexKeepsCanonicalSharing(t *testing.T) {
	s := newTestServer(t, Config{})
	request := func(net string) string {
		b, _ := json.Marshal(Request{Net: net, Engine: "exhaustive"})
		return string(b)
	}
	a, _ := verifyOK(t, s, request("net choice\nplace p *\nplace a\nplace b\ntrans left : p -> a\ntrans right : p -> b\n"))
	b, _ := verifyOK(t, s, request("# the same net\nnet choice\n\nplace p *\nplace a\nplace b\r\ntrans  left:p->a\ntrans\tright : p  ->  b"))
	if a.Cached || !b.Cached || a.RunID != b.RunID {
		t.Fatalf("first %+v\nsecond %+v", a, b)
	}
	if entries, _ := s.cache.stats(); entries != 1 || s.cache.indexedBodies() != 2 {
		t.Fatalf("%d entries, %d indexed bodies; want 1 and 2", entries, s.cache.indexedBodies())
	}
}

// TestBodyIndexOnlyValidatedResults: what is not a complete result of a
// validated body is never indexed, so it is examined again every time.
func TestBodyIndexOnlyValidatedResults(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"unknown-model", `{"model":"nope","size":2}`, http.StatusBadRequest},
		{"unknown-field", `{"model":"nsdp","size":2,"colour":"red"}`, http.StatusBadRequest},
		{"trailing-bytes", `{"model":"nsdp","size":2}junk`, http.StatusBadRequest},
		{"second-value", `{"model":"nsdp","size":2}{}`, http.StatusBadRequest},
		{"bad-net", `{"net":"net n\nplace p *\ntrans t : q -> p\n"}`, http.StatusBadRequest},
		{"over-the-body-cap", `{"model":"nsdp","size":2}` + strings.Repeat(" ", maxRequestBytes), http.StatusBadRequest},
		{"engine-error", `{"model":"nsdp","size":6,"engine":"exhaustive","max_states":10}`, http.StatusUnprocessableEntity},
	} {
		for round := 0; round < 2; round++ {
			if rec := post(t, s, "/v1/verify", tc.body); rec.Code != tc.code {
				t.Errorf("%s, round %d: %d %s, want %d", tc.name, round, rec.Code, rec.Body, tc.code)
			}
		}
	}
	// An incomplete result (the search stopped at its first deadlock)
	// and an aborted one (1 ms for 1.8 million states).
	for _, body := range []string{
		`{"model":"nsdp","size":4,"engine":"exhaustive","stop_at_first":true}`,
		`{"model":"nsdp","size":10,"engine":"exhaustive","timeout_ms":1}`,
	} {
		for round := 0; round < 2; round++ {
			resp, _ := verifyOK(t, s, body)
			if resp.Complete && resp.Status == StatusOK {
				t.Fatalf("%s: expected a partial result, got %+v", body, resp)
			}
			if resp.Cached {
				t.Errorf("%s, round %d: a partial result was served from the cache", body, round)
			}
		}
	}
	if entries, _ := s.cache.stats(); entries != 0 || s.cache.indexedBodies() != 0 {
		t.Fatalf("%d entries, %d indexed bodies after refused and partial requests only", entries, s.cache.indexedBodies())
	}
	if hits := counter(s, "server.cache_hits"); hits != 0 {
		t.Errorf("server.cache_hits = %d", hits)
	}
}

// TestBodyIndexConcurrentHits hammers one indexed body (and one that
// takes the parsed path each time it loses its slot) from several
// goroutines; run under -race.
func TestBodyIndexConcurrentHits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	body := `{"model":"nsdp","size":4,"engine":"gpo"}`
	want, _ := verifyOK(t, s, body)
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := body
				if i%10 == 9 {
					b += strings.Repeat(" ", 1+(g*rounds+i)%7) // a rotating set of respellings
				}
				rec := post(t, s, "/v1/verify", b)
				var resp Response
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("%d %s: %v", rec.Code, rec.Body, err)
					return
				}
				if !resp.Cached || resp.RunID != want.RunID || resp.States != want.States {
					t.Errorf("got %+v, want a cached copy of %+v", resp, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if hits := counter(s, "server.cache_hits"); hits != goroutines*rounds {
		t.Errorf("server.cache_hits = %d, want %d", hits, goroutines*rounds)
	}
	if entries, _ := s.cache.stats(); entries != 1 || s.cache.indexedBodies() > maxBodies {
		t.Errorf("%d entries, %d indexed bodies", entries, s.cache.indexedBodies())
	}
}

// TestRequestBodyIsOneJSONValue: both endpoints that take a Request
// refuse bytes after it, and accept white space there.
func TestRequestBodyIsOneJSONValue(t *testing.T) {
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := newTestServer(t, Config{Jobs: store})
	const req = `{"model":"nsdp","size":2,"engine":"gpo"}`
	for _, tc := range []struct {
		path string
		ok   int
	}{{"/v1/verify", http.StatusOK}, {"/v1/jobs", http.StatusAccepted}} {
		for _, tail := range []string{"junk", "{}", "]", ` {"model":"rw","size":2}`, "\x00"} {
			rec := post(t, s, tc.path, req+tail)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "after the JSON value") {
				t.Errorf("POST %s with %q after the request: %d %s", tc.path, tail, rec.Code, rec.Body)
			}
		}
		if rec := post(t, s, tc.path, req+" \r\n\t"); rec.Code != tc.ok {
			t.Errorf("POST %s with white space after the request: %d %s, want %d", tc.path, rec.Code, rec.Body, tc.ok)
		}
	}
}

// BenchmarkVerifyHit is one cache hit through the handler: read, digest,
// lookup, reply. Its B/op is gated in scripts/check.sh.
func BenchmarkVerifyHit(b *testing.B) {
	s := newTestServer(b, Config{})
	var text bytes.Buffer
	if err := pnio.Write(&text, models.NSDP(8)); err != nil {
		b.Fatal(err)
	}
	raw, _ := json.Marshal(Request{Net: text.String(), Engine: "gpo"})
	body := string(raw)
	if resp, _ := verifyOK(b, s, body); resp.Cached {
		b.Fatal("first request served from an empty cache")
	}
	h := s.Handler()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	if got := counter(s, "server.cache_body_hits"); got != int64(b.N) {
		b.Fatalf("%d digest hits in %d requests", got, b.N)
	}
}
