// Package server is the long-running verification service: an HTTP
// front end over the verify façade with admission control (a bounded
// worker pool and queue, request shedding), per-request deadlines wired
// to the engines' cooperative cancellation, and a content-addressed LRU
// cache of completed results.
//
// The intended shutdown order is Drain (new work answers 503), then
// http.Server.Shutdown (in-flight handlers finish), then Close (workers
// drain the queue and exit). Close implies Drain, so a bare Close is
// safe too — it just sheds less politely.
package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/trace"
	"repro/internal/verify"
)

// Config sets the service's capacity limits. Zero values mean defaults.
// Live progress has no setting: /v1/runs reads each run's counter when
// asked, and an SSE stream every progressEvery.
type Config struct {
	// Workers is the number of concurrent verifications (default
	// GOMAXPROCS). Each admitted request occupies one worker for its
	// whole run, so this bounds CPU and memory, not just goroutines.
	Workers int
	// QueueDepth is how many admitted-but-not-started requests may wait
	// (default 2*Workers). Beyond that the service sheds with 429.
	QueueDepth int
	// MaxStates caps every request's explicit state bound: requests
	// asking for more (or for "unlimited", 0) are clamped down to it.
	// 0 leaves request bounds alone.
	MaxStates int
	// Reduce force-enables the structural reduction pre-pass for every
	// request (composed as req.Reduce || cfg.Reduce, so requests can
	// still opt in individually when this is off). Reduction keys the
	// result cache, so forced and unforced runs never share entries.
	Reduce bool
	// DefaultTimeout is the wall-clock budget of requests that do not
	// ask for one (default 10s); MaxTimeout is the ceiling any request
	// can ask for (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// CacheBytes is the result cache budget (default 16 MiB; negative
	// disables caching). On a cluster member it is the node's whole
	// budget, including the results it owns for the shared tier.
	CacheBytes int64
	// Metrics receives the server.* and engine metrics (default: a
	// fresh registry, available via Metrics()).
	Metrics *obs.Registry
	// AccessLog, if non-nil, receives one JSON line per /v1/verify
	// request: request ID, HTTP code, engine, net, check, states
	// explored, wall time and outcome. Writes are serialized
	// internally, so any io.Writer works. Nil disables access logging.
	AccessLog io.Writer
	// TraceSink, if non-nil, enables per-request flight recording:
	// every admitted verification runs under its own tracer (ring
	// capacity TraceEvents) and, when the request deadline or a client
	// disconnect aborts the run, the sink receives the request ID and
	// the recorded event tail. It returns the path it wrote the dump
	// to, which the run's ledger entry records, or "" if it wrote none.
	// Completed runs are not dumped. Called from worker goroutines;
	// must be safe for concurrent use.
	TraceSink func(id string, d *trace.Dump) string
	// TraceEvents is the per-track ring capacity of per-request tracers
	// (0 = trace.DefaultCap). Only read when TraceSink is set.
	TraceEvents int
	// TraceRuns, when positive, retains the flight-recorder dump of the
	// last N runs in memory (keyed by run ID) and serves them on
	// GET /v1/runs/{id}/trace. Tracing is enabled for every run when
	// either TraceRuns or TraceSink is set; results stay bit-identical
	// (the recorder is passive) and disabled tracing stays free.
	TraceRuns int
	// Ledger, if non-nil, receives one entry per executed verification
	// (cache hits are not runs and are not journaled). The ledger also
	// backs the completed half of GET /v1/runs. Nil disables journaling;
	// the live-run endpoints still work.
	Ledger *ledger.Log
	// Jobs, if non-nil, enables durable asynchronous jobs (DESIGN.md
	// D11): POST /v1/jobs admits a verification that outlives the HTTP
	// request, checkpoints at engine boundaries, survives crashes via the
	// store's journal, and resumes bit-identically. The store directory
	// also holds the per-job ckpt/v2 checkpoint files.
	Jobs *jobs.Store
	// CkptInterval is the auto-checkpoint wall-clock cadence of running
	// jobs (default 30s; negative disables time-based auto-checkpoints).
	CkptInterval time.Duration
	// CkptEveryStates additionally auto-checkpoints a job every N newly
	// interned states (0 disables state-based auto-checkpoints).
	CkptEveryStates int
	// Cluster, if non-nil, makes this server a cluster member: the result
	// cache becomes this node's share of the consistent-hash shared tier
	// (tier.go), consulted after a local miss, GET /v1/cluster reports
	// the membership, and requests with "cluster": true are accepted and
	// run here like any other. The node should report to Metrics, so
	// that GET /v1/cluster shows the tier's cluster.* counters.
	Cluster *cluster.Node
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 16 << 20
	}
	if c.Metrics == nil {
		c.Metrics = obs.New()
	}
	if c.CkptInterval == 0 {
		c.CkptInterval = 30 * time.Second
	}
	return c
}

// Server is the verification service. Create with New, mount Handler on
// an http.Server, and Close when done.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	cache  *resultCache
	mux    *http.ServeMux
	traces *runTraceStore // retained dumps for /v1/runs/{id}/trace (nil = off)

	queue    chan *job
	wg       sync.WaitGroup
	draining atomic.Bool
	qmu      sync.RWMutex // guards closed vs. sends on queue
	closed   bool

	alog   *accessLogger
	idBase string // per-process prefix of generated request IDs
	idSeq  atomic.Uint64

	runsMu sync.Mutex      // guards runs
	runs   map[string]*job // queued + running verifications by run ID

	// jobsMu guards jobRuns, and orders a durable job's record
	// transitions against the handlers that read record and worker
	// together (claim, release, DELETE).
	jobsMu  sync.Mutex
	jobRuns map[string]*job // queued + running durable jobs by job ID

	requests, shed, aborts, failures, completed *obs.Counter
	ledgerErrors                                *obs.Counter
	remoteHits                                  *obs.Counter // nil without peers
	queueDepth, inflight                        *obs.Gauge
	reqWall, queueWait                          *obs.Histogram

	// Jobs-mode metrics, registered only when cfg.Jobs is set (nil and
	// untouched otherwise — every use is behind a jobs-only code path).
	jobsSubmitted, jobsResumed, jobsDone, jobsFailed *obs.Counter
	jobsCanceled, jobsCheckpointed                   *obs.Counter
	ckptSaves, ckptSaveErrors, ckptBytes             *obs.Counter
	jobsTraceEvents                                  *obs.Counter
	ckptLoads, ckptLoadErrors                        *obs.Counter
	jobsActive                                       *obs.Gauge

	// traceRuns gauges the retained-dump count; registered only when
	// cfg.TraceRuns is set.
	traceRuns *obs.Gauge
}

// New starts a Server's worker pool and returns it ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		reg:          cfg.Metrics,
		queue:        make(chan *job, cfg.QueueDepth),
		alog:         newAccessLogger(cfg.AccessLog),
		idBase:       strconv.FormatInt(time.Now().UnixNano(), 36),
		runs:         make(map[string]*job),
		requests:     cfg.Metrics.Counter("server.requests"),
		shed:         cfg.Metrics.Counter("server.shed"),
		aborts:       cfg.Metrics.Counter("server.aborted"),
		failures:     cfg.Metrics.Counter("server.errors"),
		completed:    cfg.Metrics.Counter("server.done"),
		ledgerErrors: cfg.Metrics.Counter("server.ledger_errors"),
		queueDepth:   cfg.Metrics.Gauge("server.queue_depth"),
		inflight:     cfg.Metrics.Gauge("server.inflight"),
		reqWall:      cfg.Metrics.Histogram("server.request_wall_ns"),
		queueWait:    cfg.Metrics.Histogram("server.queue_wait_ns"),
	}
	if cfg.CacheBytes > 0 {
		s.cache = newResultCache(cfg.CacheBytes, cfg.Metrics)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/verify", s.handleVerify)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Cluster != nil {
		s.registerTier()
	}
	if cfg.TraceRuns > 0 {
		s.traces = newRunTraceStore(cfg.TraceRuns)
		s.traceRuns = cfg.Metrics.Gauge("server.trace_runs")
	}
	if cfg.Jobs != nil {
		s.jobRuns = make(map[string]*job)
		s.jobsSubmitted = cfg.Metrics.Counter("jobs.submitted")
		s.jobsResumed = cfg.Metrics.Counter("jobs.resumed")
		s.jobsDone = cfg.Metrics.Counter("jobs.done")
		s.jobsFailed = cfg.Metrics.Counter("jobs.failed")
		s.jobsCanceled = cfg.Metrics.Counter("jobs.canceled")
		s.jobsCheckpointed = cfg.Metrics.Counter("jobs.checkpointed")
		s.jobsActive = cfg.Metrics.Gauge("jobs.active")
		s.jobsTraceEvents = cfg.Metrics.Counter("jobs.trace_events")
		s.ckptSaves = cfg.Metrics.Counter("ckpt.saves")
		s.ckptSaveErrors = cfg.Metrics.Counter("ckpt.save_errors")
		s.ckptBytes = cfg.Metrics.Counter("ckpt.bytes")
		s.ckptLoads = cfg.Metrics.Counter("ckpt.loads")
		s.ckptLoadErrors = cfg.Metrics.Counter("ckpt.load_errors")
		s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		s.mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
		s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
		s.mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleJobResume)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the registry the service (and its engines) report to.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Drain makes the service refuse new verification requests with 503
// while letting queued and running ones finish. Health checks report
// "draining" so load balancers rotate the instance out.
func (s *Server) Drain() { s.draining.Store(true) }

// Close drains, waits for the queue to empty and all workers to exit.
// Call after http.Server.Shutdown so no handler is mid-enqueue.
func (s *Server) Close() {
	s.Drain()
	s.qmu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	s.wg.Wait()
}

// enqueue tries to admit a job without blocking. False means the queue
// is full or the service is closing — the caller sheds the request.
func (s *Server) enqueue(j *job) bool {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.queue <- j:
		s.queueDepth.Add(1)
		return true
	default:
		return false
	}
}

// admit puts j on the live-run surface (a durable job in jobRuns too)
// and enqueues it. False means the queue is full or the service is
// closing: every registration is undone, a held tier lease is given
// back, and the caller sheds.
func (s *Server) admit(j *job) bool {
	if j.durable() {
		s.jobsMu.Lock()
		s.jobRuns[j.runID] = j
		s.jobsMu.Unlock()
	}
	s.registerRun(j)
	if s.enqueue(j) {
		return true
	}
	close(j.over)
	if j.req.lease {
		s.tierRelease(j.req)
	}
	s.release(j, nil)
	return false
}

// worker runs admitted verifications until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queueDepth.Add(-1)
		j.queueWaitNS = nowUnixNS() - j.enqNS
		s.queueWait.Observe(j.queueWaitNS)
		s.inflight.Add(1)
		s.run(j)
	}
}

// run is the one worker body: every admitted verification, a
// /v1/verify request or one slice of a durable job, runs its engine
// here, and its bookkeeping ends before its outcome becomes visible.
func (s *Server) run(j *job) {
	if j.durable() && !s.claim(j) {
		close(j.over)
		s.runSettled()
		s.release(j, nil)
		return
	}
	startNS := nowUnixNS()
	j.startNS.Store(startNS)
	ctx, cancel := context.WithTimeout(j.ctx, j.budget())
	defer cancel()
	opts := j.req.opts
	opts.Ctx = ctx
	// The engine reports into the run's own registry so the ledger entry
	// and /v1/runs/{id} carry this run's numbers; the epilogue folds them
	// into the process registry that /metrics serves.
	opts.Metrics = j.reg
	// The engine adds one per unit of work to the run's counter, which
	// every live surface samples.
	opts.Progress = &j.progress
	tr := s.newRunTracer(j, &opts)
	var sl *slice
	if j.durable() {
		sl = s.startSlice(j, tr, &opts)
	}

	var (
		rep *verify.Report
		err error
	)
	if j.req.check == CheckSafety {
		rep, err = verify.CheckSafety(j.req.net, j.req.bad, opts)
	} else {
		rep, err = verify.CheckDeadlock(j.req.net, opts)
	}
	endNS := nowUnixNS()

	var resp *Response
	if err == nil {
		resp = responseOf(j.req, rep)
	}
	var settle func(*jobs.Record)
	if sl != nil {
		settle = s.endSlice(sl, resp, err)
	}
	tracePath := ""
	switch {
	case err != nil:
		s.failures.Inc()
	case resp.Status == StatusAborted:
		s.aborts.Inc()
		// A deadline or disconnect killed the run mid-flight: dump the
		// flight recorder so the abort is diagnosable after the fact,
		// and point the ledger entry at the dump.
		if tr != nil && s.cfg.TraceSink != nil {
			tracePath = s.cfg.TraceSink(j.id, tr.Dump())
		}
	case resp.Status == StatusOK && resp.Complete:
		// Only complete, uncancelled results are cacheable: partial
		// statistics depend on where the deadline happened to land.
		s.cacheResult(j.req, resp)
	}
	// Peers is stamped after the tier has the result: it decorates this
	// reply only, never the cached bytes.
	if s.cfg.Cluster != nil {
		s.tierSettle(j.req, resp)
	}
	if j.req.cluster && resp != nil {
		j.peers = s.cfg.Cluster.NumPeers()
		resp.Peers = j.peers
	}

	// The epilogue, strictly ordered: trace retained, final response
	// stored (so the SSE terminal event has a verdict), streams ended,
	// journal appended, per-run metrics
	// folded into the process registry, the worker's counters settled,
	// live registration dropped — all before the outcome is visible, so
	// a client that saw it also sees the run's history.
	s.retainTrace(j, tr)
	j.finish(resp, err)
	close(j.over)
	e := verify.LedgerEntry(j.req.key, j.req.net, j.req.check, j.req.opts, rep, err, startNS, endNS)
	e.Source, e.RequestID, e.Peers = "gpod", j.id, j.peers
	e.TracePath, e.Metrics = tracePath, metricsOf(j.reg)
	if e.Status == StatusAborted {
		e.AbortReason = abortReason(j)
	}
	if lerr := s.cfg.Ledger.Append(e); lerr != nil {
		s.ledgerErrors.Inc()
	}
	s.reg.Merge(j.reg)
	s.runSettled()
	s.release(j, settle)
	if j.done != nil {
		j.done <- jobResult{resp: resp, err: err} // resp is nil when err is not
	}
}

// runSettled closes the worker's books on one dequeued job. Each run
// calls it before the outcome becomes visible to a client (the handler
// waking, the job record settling), so whoever has seen a run's result
// also sees it counted in server.done and gone from server.inflight.
func (s *Server) runSettled() {
	s.inflight.Add(-1)
	s.completed.Inc()
}

// cacheResult caches a result of the request pr and indexes the entry
// under the body pr was decoded from.
func (s *Server) cacheResult(pr *parsedRequest, resp *Response) {
	s.cache.put(pr.key, resp)
	s.cache.indexBody(pr.key, pr.digest)
}

// budget is the run's hard wall-clock limit: the request timeout, or,
// for a durable job, whose timeout is a slice that ends in a clean
// suspension, a backstop beyond it for an engine stuck inside one
// boundary-free stretch.
func (j *job) budget() time.Duration {
	t := j.req.timeout
	if j.durable() {
		t += min(max(t/2, 2*time.Second), 30*time.Second)
	}
	return t
}

// release takes a job off the live-run surface. A durable job's record
// takes its terminal transition (settle; nil leaves the record alone)
// in the same jobsMu section that drops the job from jobRuns, so no
// resume and no DELETE sees one without the other.
func (s *Server) release(j *job, settle func(*jobs.Record)) {
	s.deregisterRun(j)
	if !j.durable() {
		return
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if settle != nil {
		s.cfg.Jobs.Update(j.runID, settle)
	}
	if s.jobRuns[j.runID] == j {
		delete(s.jobRuns, j.runID)
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	start := time.Now()
	id := s.requestID(r.Header.Get(requestIDHeader))
	w.Header().Set(requestIDHeader, id)
	entry := &accessEntry{RequestID: id}
	defer func() {
		entry.WallNS = time.Since(start).Nanoseconds()
		s.reqWall.Observe(entry.WallNS)
		s.alog.log(entry)
	}()
	fail := func(code int, outcome, msg string) {
		entry.Code, entry.Outcome = code, outcome
		writeJSON(w, code, errorBody{Error: msg})
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "method", "POST only")
		return
	}
	if s.draining.Load() {
		fail(http.StatusServiceUnavailable, "draining", "draining")
		return
	}
	// served answers with a cached result; what the access log says of
	// it comes from the result, all a digest hit has.
	served := func(resp *Response) {
		entry.Engine, entry.Net, entry.Check, entry.RunID = resp.Engine, resp.Net, resp.Check, resp.RunID
		entry.Code, entry.Outcome = http.StatusOK, "cached"
		entry.CacheHit = true
		entry.States = resp.States
		writeJSON(w, http.StatusOK, resp)
	}
	body, digest, err := readBody(w, r)
	if err != nil {
		fail(requestFailure(err))
		return
	}
	defer releaseBody(body)
	// A body seen before is answered on its digest alone: the bytes were
	// validated and keyed when they were indexed, and nothing else that
	// feeds the key can change while this Server lives (DESIGN.md D14).
	if resp, ok := s.cache.getByBody(digest); ok {
		served(resp)
		return
	}
	pr, err := s.decodeRequest(body.Bytes(), digest)
	if err != nil {
		fail(requestFailure(err))
		return
	}
	entry.Engine = pr.opts.Engine.String()
	entry.Net = pr.net.Name()
	entry.Check = pr.check
	// The run ID is the content address of the work itself, so the cache
	// hit and the run that populated it share the ID — the access log
	// joins them without any extra bookkeeping.
	entry.RunID = pr.key.RunID()
	if resp, ok := s.cache.get(pr.key); ok {
		// A new spelling of known work: the next one like it is a digest hit.
		s.cache.indexBody(pr.key, digest)
		served(resp)
		return
	}
	// Local miss: consult the cluster's shared result tier. A lease is
	// settled by the worker (tierSettle).
	if s.cfg.Cluster != nil {
		resp, out := s.tierAcquire(r.Context(), pr)
		if out == tierHit {
			served(resp)
			return
		}
		pr.lease = out == tierLease
	}
	j := newJob(r.Context(), id, pr)
	j.done = make(chan jobResult, 1)
	if !s.admit(j) {
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		fail(http.StatusTooManyRequests, "shed", "over capacity, retry later")
		return
	}
	// The worker always answers, even for a disconnected client (the
	// engine aborts via the context and the response write just fails),
	// so a plain receive cannot leak.
	res := <-j.done
	entry.QueueWaitNS = j.queueWaitNS
	if res.err != nil {
		fail(http.StatusUnprocessableEntity, "error", res.err.Error())
		return
	}
	entry.Code, entry.Outcome = http.StatusOK, res.resp.Status
	entry.States = res.resp.States
	writeJSON(w, http.StatusOK, res.resp)
}

// clusterStatusBody is the GET /v1/cluster document.
type clusterStatusBody struct {
	Enabled bool `json:"enabled"`
	*cluster.Status
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	body := clusterStatusBody{}
	if s.cfg.Cluster != nil {
		body.Enabled = true
		body.Status = s.cfg.Cluster.Status()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, s.reg.Snapshot())
		return
	}
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
