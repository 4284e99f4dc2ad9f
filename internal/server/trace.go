package server

// Tracing surface: the server retains the flight-recorder dumps of the
// last Config.TraceRuns runs in memory and serves them on
// GET /v1/runs/{id}/trace as a gpotrace bundle. Every run executes on
// the server that received it, cluster runs included, so the bundle
// holds that server's dump alone.

import (
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/verify"
)

// runTraceStore retains the dumps of the most recent traced runs,
// oldest evicted first; capacity comes from Config.TraceRuns.
type runTraceStore struct {
	mu    sync.Mutex
	cap   int
	order []string
	byRun map[string]*trace.Dump
}

func newRunTraceStore(cap int) *runTraceStore {
	return &runTraceStore{cap: cap, byRun: make(map[string]*trace.Dump)}
}

func (s *runTraceStore) put(run string, d *trace.Dump) {
	if run == "" || d == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byRun[run]; !ok {
		s.order = append(s.order, run)
		for len(s.order) > s.cap {
			delete(s.byRun, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.byRun[run] = d
}

func (s *runTraceStore) get(run string) *trace.Dump {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byRun[run]
}

func (s *runTraceStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byRun)
}

// newRunTracer creates the per-run flight recorder when tracing is on
// (a TraceSink to dump aborts into, or TraceRuns retention) and hooks
// it into the engine options. Returns nil — and leaves opts.Trace nil,
// the zero-cost disabled path — otherwise.
func (s *Server) newRunTracer(j *job, opts *verify.Options) *trace.Tracer {
	if s.cfg.TraceSink == nil && s.traces == nil {
		return nil
	}
	tr := trace.New(trace.Options{Cap: s.cfg.TraceEvents})
	tr.SetMeta("request_id", j.id)
	tr.SetMeta("run_id", j.runID)
	tr.SetMeta("engine", opts.Engine.String())
	tr.SetMeta("net", j.req.net.Name())
	tr.SetMeta("check", j.req.check)
	tr.SetTransNames(transNames(j.req.net))
	opts.Trace = tr
	return tr
}

// retainTrace stores a finished run's dump for /v1/runs/{id}/trace.
func (s *Server) retainTrace(j *job, tr *trace.Tracer) {
	if tr == nil || s.traces == nil {
		return
	}
	s.traces.put(j.runID, tr.Dump())
	s.traceRuns.Set(int64(s.traces.len()))
}

// handleRunTrace answers GET /v1/runs/{id}/trace with the run's trace
// bundle: one entry, this server's dump, under its cluster address (or
// "local" outside a cluster).
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var d *trace.Dump
	if s.traces != nil {
		d = s.traces.get(id)
	}
	if d != nil {
		addr := "local"
		if s.cfg.Cluster != nil {
			addr = s.cfg.Cluster.Self()
		}
		b := &trace.Bundle{RunID: id, Peers: []trace.BundlePeer{{Addr: addr, Coordinator: true, Dump: d}}}
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteBundle(w, b)
		return
	}
	if s.traces == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "trace retention disabled (start the server with trace runs > 0)"})
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "no trace retained for run " + id})
}

// jobTraceEmitter wraps a tracer's "job" track for lifecycle events
// (slice begin/end, resume, checkpoint saves) with step names interned
// lazily; nil-safe like the recorder itself.
type jobTraceEmitter struct {
	tr  *trace.Tracer
	tk  *trace.Track
	ctr *obs.Counter
}

func (s *Server) newJobTraceEmitter(tr *trace.Tracer) *jobTraceEmitter {
	if tr == nil {
		return nil
	}
	return &jobTraceEmitter{tr: tr, tk: tr.NewTrack("job"), ctr: s.jobsTraceEvents}
}

// emit records one lifecycle step (Arg0 = interned step name, Arg1 =
// detail, typically a state count).
func (e *jobTraceEmitter) emit(step string, detail int64) {
	if e == nil {
		return
	}
	e.tk.Job(e.tr.Intern(step), detail)
	e.ctr.Inc()
}
