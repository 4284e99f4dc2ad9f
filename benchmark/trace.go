package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The span recorder of the traced run. Spans are recorded from the
// benchmark's own files, around the calls into each package's public
// functions; they stay in memory and are written out as Chrome
// trace-event JSON (Perfetto opens it) when the workload ends.

// span is one timed call: the layer (package) it entered, the function,
// the operation it belongs to, and the span that caused it.
type span struct {
	layer, name string
	op          int
	parent      int // index into recorder.spans, -1 for a root
	lane        int // client goroutine; becomes the Chrome thread id
	start, end  time.Duration
}

type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// spanRef names a started span. The zero value (nil recorder) is valid
// and records nothing, so untraced rounds run the same code.
type spanRef struct {
	r *recorder
	i int
}

// begin opens a span under parent (a zero parent makes a root span).
func (r *recorder) begin(layer, name string, op, lane int, parent spanRef) spanRef {
	if r == nil {
		return spanRef{}
	}
	p := -1
	if parent.r != nil {
		p = parent.i
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{layer: layer, name: name, op: op, parent: p, lane: lane, start: time.Since(r.base)})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return spanRef{r, i}
}

// end closes the span and returns its duration (0 on a zero ref).
func (s spanRef) end() time.Duration {
	if s.r == nil {
		return 0
	}
	now := time.Since(s.r.base)
	s.r.mu.Lock()
	sp := &s.r.spans[s.i]
	sp.end = now
	d := sp.end - sp.start
	s.r.mu.Unlock()
	return d
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part covered by their child spans.
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		out[s.layer] += s.end - s.start - child[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	_, _ = w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			_ = w.WriteByte(',')
		}
		ev, _ := json.Marshal(map[string]any{
			"name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": s.lane,
			"ts":   float64(s.start) / 1e3,
			"dur":  float64(s.end-s.start) / 1e3,
			"args": map[string]int{"op": s.op, "span": i, "parent": s.parent},
		})
		_, _ = w.Write(ev)
	}
	r.mu.Unlock()
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Trace context crosses the loopback HTTP hop in two request headers, set
// by opTransport on the client side and read by the timing middleware on
// the server side, so a handler span hangs under the client span that
// caused it without touching internal/server/client.
const (
	opHeader     = "X-Bench-Op"
	parentHeader = "X-Bench-Parent"
)

type traceCtxKey struct{}

type traceCtx struct {
	op, lane int
	parent   spanRef
}

func withTrace(ctx context.Context, op, lane int, parent spanRef) context.Context {
	if parent.r == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, traceCtx{op, lane, parent})
}

// opTransport stamps the trace headers on requests whose context carries
// a span.
type opTransport struct{ next http.RoundTripper }

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tc, ok := req.Context().Value(traceCtxKey{}).(traceCtx); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.Itoa(tc.op)+"/"+strconv.Itoa(tc.lane))
		req.Header.Set(parentHeader, strconv.Itoa(tc.parent.i))
	}
	return t.next.RoundTrip(req)
}

// middleware times Handler() from outside and counts the bytes crossing
// it. It records only requests carrying the trace headers, so untraced
// rounds pay one header lookup.
type middleware struct {
	next http.Handler
	rec  *recorder

	mu        sync.Mutex
	handlerUS []float64
	byOp      map[int]float64 // handler time by operation, us
	requests  atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
}

func newMiddleware(next http.Handler, rec *recorder) *middleware {
	return &middleware{next: next, rec: rec, byOp: map[int]float64{}}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Flush keeps server-sent-event endpoints working behind the wrapper.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := r.Header.Get(opHeader)
	if h == "" {
		m.next.ServeHTTP(w, r)
		return
	}
	opStr, laneStr, _ := strings.Cut(h, "/")
	op, _ := strconv.Atoi(opStr)
	lane, _ := strconv.Atoi(laneStr)
	parent, _ := strconv.Atoi(r.Header.Get(parentHeader))
	cw := &countingWriter{ResponseWriter: w}
	s := m.rec.begin("server", "server.Handler", op, lane, spanRef{m.rec, parent})
	m.next.ServeHTTP(cw, r)
	us := float64(s.end()) / 1e3
	m.requests.Add(1)
	m.bytesIn.Add(r.ContentLength)
	m.bytesOut.Add(cw.n)
	m.mu.Lock()
	m.handlerUS = append(m.handlerUS, us)
	m.byOp[op] = us
	m.mu.Unlock()
}
