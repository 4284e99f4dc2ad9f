package server

import (
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
// reports this run's numbers, not process totals), the Publisher
// fanning throttled progress updates out to SSE subscribers, and the
// outcome once the worker has it. The engine never sees any of this
// directly — it only ticks the obs.Progress it is handed, exactly as it
// would uninstrumented.
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

	pub *obs.Publisher
	reg *obs.Registry

	mu   sync.Mutex
	resp *Response // final response, set before the publisher closes
	err  string
}

type jobResult struct {
	resp *Response
	err  error // engine/analysis error (not cancellation)
}

func newJob(ctx context.Context, id string, pr *parsedRequest) *job {
	return &job{ctx: ctx, id: id, runID: pr.key.RunID(), req: pr, enqNS: nowUnixNS(),
		pub: obs.NewPublisher(), reg: obs.New()}
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
	// Progress from the last throttled update (zero until the first one).
	States    int64   `json:"states"`
	ElapsedNS int64   `json:"elapsed_ns"`
	Rate      float64 `json:"rate"`
	// Peaks from the run's own registry.
	Frontier    int64 `json:"frontier_peak,omitempty"`
	ZddNodes    int64 `json:"zdd_nodes,omitempty"`
	Subscribers int   `json:"subscribers"`
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
		Frontier:    j.reg.Gauge("reach.queue_peak").Value(),
		ZddNodes:    j.reg.Gauge("zdd.nodes").Value(),
		Subscribers: j.pub.Subscribers(),
	}
	if st.StartUnixNS != 0 {
		st.State = "running"
	}
	if u, ok := j.pub.Last(); ok {
		st.States = u.Count
		st.ElapsedNS = int64(u.Elapsed)
		st.Rate = u.Rate
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
// itself.
func (s *Server) ledgerEntry(id string) (e ledger.Entry, ok bool) {
	recent := s.cfg.Ledger.Recent()
	for i := len(recent) - 1; i >= 0; i-- {
		if recent[i].RunID == id {
			return recent[i], true
		}
	}
	if path := s.cfg.Ledger.Path(); path != "" {
		all, err := ledger.Read(path)
		if err == nil {
			for i := len(all) - 1; i >= 0; i-- {
				if all[i].RunID == id {
					return all[i], true
				}
			}
		}
	}
	return e, false
}

// progressEvent is the SSE "progress" payload: one throttled snapshot
// of a running exploration.
type progressEvent struct {
	RunID     string  `json:"run_id"`
	States    int64   `json:"states"`
	ElapsedNS int64   `json:"elapsed_ns"`
	Rate      float64 `json:"rate"`
	Frontier  int64   `json:"frontier_peak,omitempty"`
	ZddNodes  int64   `json:"zdd_nodes,omitempty"`
	Final     bool    `json:"final,omitempty"`
}

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
// "progress" events at the server's throttle cadence, terminated by one
// "done" event carrying the verdict. For an already-completed run the
// stream is just the "done" event reconstructed from the ledger. The
// subscriber rides a bounded drop-oldest buffer, so a slow client loses
// intermediate snapshots, never the verdict, and never slows the engine.
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

	ch, cancel := j.pub.Subscribe(16)
	defer cancel()
	sseHeaders(w)
	for {
		select {
		case u, open := <-ch:
			if !open {
				// Publisher closed: the run is over and its final
				// response was stored before the close.
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
			}
			writeSSE(w, flusher, "progress", progressEvent{
				RunID:     j.runID,
				States:    u.Count,
				ElapsedNS: int64(u.Elapsed),
				Rate:      u.Rate,
				Frontier:  j.reg.Gauge("reach.queue_peak").Value(),
				ZddNodes:  j.reg.Gauge("zdd.nodes").Value(),
				Final:     u.Final,
			})
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
