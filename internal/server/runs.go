package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/verify"
)

// job is one admitted verification and the one record of its run: the
// resolved request, a per-run metrics registry (so /v1/runs/{id}
// reports this run's numbers, not process totals), the run's progress
// counter, and the outcome once the worker has it. The engine only adds
// to the counter, one per unit of work, exactly as it would unwatched;
// /v1/runs, /v1/runs/{id} and the SSE stream each sample it when they
// answer, so live status is exact whether or not anyone subscribed.
//
// A durable job (POST /v1/jobs) differs from a /v1/verify request in
// three things, all data here: ctx (the request's, or none — a job
// outlives its submitter), its slice (budget, resume, cancel) and
// Checkpointer (startSlice), and where the outcome goes (done, or the
// job's record in the store when done is nil).
type job struct {
	ctx   context.Context
	id    string // request ID (echoed header, access log, trace meta)
	runID string // req.key.RunID(): /v1/runs, the ledger, the job ID
	req   *parsedRequest
	done  chan jobResult // nil for a durable job
	// resume is the snapshot a durable job re-enters from (nil = fresh
	// start); cancel is the flag DELETE sets, observed at the next
	// engine boundary.
	resume *verify.EngineSnapshot
	cancel atomic.Bool

	// enqNS is when the job was admitted; the worker stamps startNS and
	// queueWaitNS at dequeue (before the handler reads queueWaitNS back
	// — the done channel orders the accesses).
	enqNS       int64
	startNS     atomic.Int64 // 0 while queued
	queueWaitNS int64
	// peers is the cluster size for "cluster": true requests (0
	// otherwise), journaled in the run's ledger entry.
	peers int

	reg      *obs.Registry
	progress obs.Counter   // states (events, iterations) so far
	over     chan struct{} // closed when the outcome is stored or never comes
	subs     atomic.Int32  // open SSE streams

	mu   sync.Mutex
	resp *Response // final response, set before over closes
	err  string
}

type jobResult struct {
	resp *Response
	err  error // engine/analysis error (not cancellation)
}

func newJob(ctx context.Context, id string, pr *parsedRequest) *job {
	return &job{ctx: ctx, id: id, runID: pr.key.RunID(), req: pr, enqNS: nowUnixNS(),
		reg: obs.New(), over: make(chan struct{})}
}

// durable reports whether j is a POST /v1/jobs job.
func (j *job) durable() bool { return j.done == nil }

func (j *job) finish(resp *Response, err error) {
	j.mu.Lock()
	j.resp = resp
	if err != nil {
		j.err = err.Error()
	}
	j.mu.Unlock()
}

func (j *job) final() (*Response, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resp, j.err
}

// sample is one reading of a run's progress counter: the count so far,
// the time since a worker started the engine (0 while queued), and
// their ratio.
type sample struct {
	States    int64   `json:"states"`
	ElapsedNS int64   `json:"elapsed_ns"`
	Rate      float64 `json:"rate"`
}

func (j *job) sample() sample {
	p := sample{States: j.progress.Value()}
	if start := j.startNS.Load(); start != 0 {
		p.ElapsedNS = nowUnixNS() - start
	}
	if p.ElapsedNS > 0 {
		p.Rate = float64(p.States) / time.Duration(p.ElapsedNS).Seconds()
	}
	return p
}

// runStatus is the wire shape of one in-flight run on /v1/runs.
type runStatus struct {
	RunID     string `json:"run_id"`
	RequestID string `json:"request_id"`
	State     string `json:"state"` // "queued" or "running"
	Net       string `json:"net"`
	Engine    string `json:"engine"`
	Check     string `json:"check"`
	// StartUnixNS is when a worker started the engine (0 while queued).
	StartUnixNS int64 `json:"start_unix_ns,omitempty"`
	sample
	Subscribers int `json:"subscribers"`
}

func (j *job) status() runStatus {
	st := runStatus{
		RunID:       j.runID,
		RequestID:   j.id,
		State:       "queued",
		Net:         j.req.net.Name(),
		Engine:      j.req.opts.Engine.String(),
		Check:       j.req.check,
		StartUnixNS: j.startNS.Load(),
		sample:      j.sample(),
		Subscribers: int(j.subs.Load()),
	}
	if st.StartUnixNS != 0 {
		st.State = "running"
	}
	return st
}

// registerRun publishes j on the live-run surface. Content addressing
// means two concurrent identical requests share a run ID; the registry
// keeps the latest, and deregisterRun only removes the entry it owns.
func (s *Server) registerRun(j *job) {
	s.runsMu.Lock()
	s.runs[j.runID] = j
	s.runsMu.Unlock()
}

func (s *Server) deregisterRun(j *job) {
	s.runsMu.Lock()
	if s.runs[j.runID] == j {
		delete(s.runs, j.runID)
	}
	s.runsMu.Unlock()
}

func (s *Server) liveJob(id string) *job {
	s.runsMu.Lock()
	defer s.runsMu.Unlock()
	return s.runs[id]
}

// handleRuns answers GET /v1/runs: every queued or running verification
// plus the recently completed tail of the ledger (newest first).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.runsMu.Lock()
	running := make([]runStatus, 0, len(s.runs))
	for _, j := range s.runs {
		running = append(running, j.status())
	}
	s.runsMu.Unlock()
	completed := s.cfg.Ledger.Recent()
	for i, j := 0, len(completed)-1; i < j; i, j = i+1, j-1 {
		completed[i], completed[j] = completed[j], completed[i]
	}
	writeJSON(w, http.StatusOK, struct {
		Running   []runStatus    `json:"running"`
		Completed []ledger.Entry `json:"completed"`
	}{running, completed})
}

// handleRun answers GET /v1/runs/{id}: a live status with the run's own
// metrics snapshot, or the ledger entry of a completed run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j := s.liveJob(id); j != nil {
		writeJSON(w, http.StatusOK, struct {
			runStatus
			Metrics *obs.Snapshot `json:"metrics"`
		}{j.status(), j.reg.Snapshot()})
		return
	}
	if e, ok := s.ledgerEntry(id); ok {
		writeJSON(w, http.StatusOK, e)
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown run " + id})
}

// ledgerEntry finds the newest ledger entry for id, first in the
// in-memory tail, then (for history beyond the tail) in the journal
// itself, decoding only the lines that name id.
func (s *Server) ledgerEntry(id string) (e ledger.Entry, ok bool) {
	recent := s.cfg.Ledger.Recent()
	for i := len(recent) - 1; i >= 0; i-- {
		if recent[i].RunID == id {
			return recent[i], true
		}
	}
	if path := s.cfg.Ledger.Path(); path != "" {
		needle := []byte(`"run_id":"` + id + `"`)
		ledger.Scan(path, func(line []byte) {
			if bytes.Contains(line, needle) {
				var cand ledger.Entry
				if json.Unmarshal(line, &cand) == nil && cand.Schema == ledger.Schema && cand.RunID == id {
					e, ok = cand, true
				}
			}
		})
	}
	return e, ok
}

// progressEvent is the SSE "progress" payload: one sample of a running
// exploration.
type progressEvent struct {
	RunID string `json:"run_id"`
	sample
}

// progressEvery is the cadence of "progress" events on an SSE stream.
const progressEvery = 200 * time.Millisecond

// doneEvent is the SSE "done" payload: the run's verdict, emitted once
// as the stream's last event. States here is the final result count —
// for a completed explicit-state run it equals the reach.states metric
// exactly (pinned by TestE2ERunEventsStates).
type doneEvent struct {
	RunID    string `json:"run_id"`
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	Deadlock bool   `json:"deadlock"`
	States   int64  `json:"states"`
	Complete bool   `json:"complete"`
	WallNS   int64  `json:"wall_ns"`
}

func writeSSE(w http.ResponseWriter, flusher http.Flusher, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	flusher.Flush()
}

// handleRunEvents answers GET /v1/runs/{id}/events with an SSE stream:
// a "progress" sample as soon as the client subscribes and then every
// progressEvery, terminated by one "done" event carrying the verdict.
// For an already-completed run the stream is just the "done" event
// reconstructed from the ledger. Each stream reads the run's counter on
// its own ticker, so a slow client delays only itself, never the engine.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	j := s.liveJob(id)
	if j == nil {
		e, found := s.ledgerEntry(id)
		if !found {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown run " + id})
			return
		}
		sseHeaders(w)
		writeSSE(w, flusher, "done", doneEvent{
			RunID:    e.RunID,
			Status:   e.Status,
			Error:    e.AbortReason,
			Deadlock: e.Deadlock,
			States:   e.States,
			Complete: e.Complete,
			WallNS:   e.WallNS,
		})
		return
	}

	j.subs.Add(1)
	defer j.subs.Add(-1)
	sseHeaders(w)
	tick := time.NewTicker(progressEvery)
	defer tick.Stop()
	for {
		writeSSE(w, flusher, "progress", progressEvent{RunID: j.runID, sample: j.sample()})
		select {
		case <-tick.C:
		case <-j.over:
			// The run is over and its final response was stored before
			// over closed.
			resp, errMsg := j.final()
			done := doneEvent{RunID: j.runID, Status: "error", Error: errMsg}
			if resp != nil {
				done.Status = resp.Status
				done.Deadlock = resp.Deadlock
				done.States = int64(resp.States)
				done.Complete = resp.Complete
				done.WallNS = resp.ElapsedNS
			}
			writeSSE(w, flusher, "done", done)
			return
		case <-r.Context().Done():
			return
		}
	}
}

func sseHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
}

// metricsOf is a run's final counter and gauge snapshot, the ledger
// entry's metrics, under their documented names.
func metricsOf(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges) == 0 {
		return nil
	}
	m := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for k, v := range snap.Counters {
		m[k] = v
	}
	for k, v := range snap.Gauges {
		m[k] = v
	}
	return m
}

// abortReason distinguishes the two ways a run dies mid-flight.
func abortReason(j *job) string {
	if err := j.ctx.Err(); err != nil {
		return "disconnect" // client context canceled or timed out
	}
	return "deadline" // the server-side per-request budget expired
}

// nowUnixNS is time.Now().UnixNano(), indirected for tests.
var nowUnixNS = func() int64 { return time.Now().UnixNano() }
