package server

// The asynchronous jobs surface (DESIGN.md D11): durable verification
// jobs that outlive the submitting HTTP request, auto-checkpoint at
// engine boundaries, suspend cleanly on deadline / cancel / drain, and
// resume bit-identically — after a graceful restart or a crash.
//
// A job's ID is its content-addressed run ID (verify.RunKey), so
// submission is idempotent, the checkpoint file can never be resumed
// under the wrong work, and the job joins the result cache, the ledger
// and /v1/runs on one identity. The durable state (jobs/v1 journal +
// ckpt/v2 files) lives in internal/jobs and internal/ckpt; this file
// owns the HTTP handlers and the worker-side execution loop.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/stop"
	"repro/internal/verify"
)

// asyncRun is the in-memory half of one queued-or-running async job:
// the cancel flag DELETE sets (observed at the next engine boundary)
// and the snapshot a resume re-enters from. The durable half is the
// job's record in the store.
type asyncRun struct {
	id     string // job ID = run ID
	cancel atomic.Bool
	resume *verify.EngineSnapshot // nil = fresh start
}

// errOverCapacity marks an admission failure (queue full / closing) so
// handlers can shed with 429 + Retry-After.
var errOverCapacity = errors.New("over capacity, retry later")

// jobBody is the wire shape of one job: its durable record plus, while
// it is queued or running, the live-run status from /v1/runs.
type jobBody struct {
	jobs.Record
	Run *runStatus `json:"run,omitempty"`
}

func (s *Server) jobView(rec jobs.Record) jobBody {
	b := jobBody{Record: rec}
	if lr := s.liveRunByID(rec.ID); lr != nil {
		st := lr.status()
		b.Run = &st
	}
	return b
}

// handleJobSubmit answers POST /v1/jobs: admit a durable verification
// job. The body is the same Request as /v1/verify; the response is the
// job record (202 on fresh admission, 200 when the content-addressed ID
// already exists — resubmission is a lookup, not a second run — and 409
// when the job under that ID is other work whose key shares its prefix).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	refuse := func(err error) {
		code, _, msg := requestFailure(err)
		writeJSON(w, code, errorBody{Error: msg})
	}
	body, digest, err := readBody(w, r)
	if err != nil {
		refuse(err)
		return
	}
	defer releaseBody(body)
	pr, err := s.decodeRequest(body.Bytes(), digest)
	if err != nil {
		refuse(err)
		return
	}
	if pr.cluster {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "jobs cannot use cluster execution; submit to /v1/verify instead"})
		return
	}
	if err := pr.opts.Checkpointable(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	id := pr.key.RunID()
	existing := func(rec jobs.Record) {
		if s.sameWork(rec, pr.key) {
			writeJSON(w, http.StatusOK, s.jobView(rec))
		} else {
			writeJSON(w, http.StatusConflict, errorBody{Error: "job " + id + " is other work under the same run ID"})
		}
	}
	if rec, ok := s.cfg.Jobs.Get(id); ok {
		existing(rec)
		return
	}
	rec := jobs.Record{
		ID:      id,
		Request: bytes.Clone(body.Bytes()), // the record outlives the pooled buffer
		Net:     pr.net.Name(),
		Engine:  pr.opts.Engine.String(),
		Check:   pr.check,
	}
	if err := s.cfg.Jobs.Create(rec); err != nil {
		// Raced resubmission: someone created the same ID between our
		// lookup and Create.
		if cur, ok := s.cfg.Jobs.Get(id); ok {
			existing(cur)
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	s.jobsSubmitted.Inc()
	if err := s.startAsync(id, pr, nil); err != nil {
		// The record stays queued and durable: a restart (or an explicit
		// resume) picks it up once there is capacity.
		s.cfg.Jobs.Update(id, func(r *jobs.Record) { r.Error = "admission: " + err.Error() })
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	}
	cur, _ := s.cfg.Jobs.Get(id)
	writeJSON(w, http.StatusAccepted, s.jobView(cur))
}

// sameWork reports whether a stored job's request resolves to key. A
// job ID is the 96-bit run ID, so an ID match alone does not make two
// requests the same work.
func (s *Server) sameWork(rec jobs.Record, key cacheKey) bool {
	pr, err := s.decodeRequest(rec.Request, bodyDigest{})
	return err == nil && pr.key == key
}

// handleJobsList answers GET /v1/jobs with every job, oldest first.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	recs := s.cfg.Jobs.List()
	out := make([]jobBody, 0, len(recs))
	for _, rec := range recs {
		out = append(out, s.jobView(rec))
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobBody `json:"jobs"`
	}{out})
}

// handleJobGet answers GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.cfg.Jobs.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(rec))
}

// handleJobCancel answers DELETE /v1/jobs/{id}: stop the job at its
// next engine boundary, keeping any checkpoint (a canceled job stays
// resumable). Queued jobs cancel immediately; settled jobs are a no-op.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.cfg.Jobs.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	switch rec.State {
	case jobs.Queued:
		// Flag any in-flight admission too: if a worker picked the job up
		// between our read and the update, it stops at the next boundary.
		s.jobsMu.Lock()
		if ar := s.jobRuns[id]; ar != nil {
			ar.cancel.Store(true)
		}
		s.jobsMu.Unlock()
		rec, _ = s.cfg.Jobs.Update(id, func(r *jobs.Record) { r.State = jobs.Canceled })
		s.jobsCanceled.Inc()
		writeJSON(w, http.StatusOK, s.jobView(rec))
	case jobs.Running:
		s.jobsMu.Lock()
		ar := s.jobRuns[id]
		s.jobsMu.Unlock()
		if ar == nil {
			// Journal says running but no worker owns it (stale state from
			// an earlier crash this process never repaired): settle it.
			rec, _ = s.cfg.Jobs.Update(id, func(r *jobs.Record) { r.State = jobs.Canceled })
			s.jobsCanceled.Inc()
			writeJSON(w, http.StatusOK, s.jobView(rec))
			return
		}
		ar.cancel.Store(true)
		// 202: the worker checkpoints at the next boundary and settles the
		// record to canceled; poll GET /v1/jobs/{id} for the transition.
		writeJSON(w, http.StatusAccepted, s.jobView(rec))
	default: // Done, Failed, Canceled, Checkpointed: already settled
		writeJSON(w, http.StatusOK, s.jobView(rec))
	}
}

// handleJobResume answers POST /v1/jobs/{id}/resume: re-admit a
// checkpointed, canceled or queued job. When a checkpoint exists the
// run re-enters the engine at its boundary; otherwise it starts over.
func (s *Server) handleJobResume(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	id := r.PathValue("id")
	rec, ok := s.cfg.Jobs.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	if !rec.State.Resumable() {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s is %s, not resumable", id, rec.State)})
		return
	}
	upd, err := s.resumeRecord(rec)
	switch {
	case errors.Is(err, errOverCapacity):
		s.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusAccepted, s.jobView(upd))
	}
}

// ResumeJobs re-admits every resumable (queued or checkpointed) job in
// the store. gpod calls it once at startup, so a restarted server picks
// its durable work back up without client action; canceled jobs stay
// canceled until an explicit resume. Returns the number re-admitted;
// jobs that fail to resume keep their state with the reason recorded.
func (s *Server) ResumeJobs() int {
	if s.cfg.Jobs == nil {
		return 0
	}
	n := 0
	for _, rec := range s.cfg.Jobs.Resumable() {
		if _, err := s.resumeRecord(rec); err == nil {
			n++
		}
	}
	return n
}

// resumeRecord re-resolves a stored job, loads its checkpoint (if any,
// with full integrity + key validation — a damaged checkpoint is a
// typed refusal, never a silent fresh start), and re-admits it. A job it
// refuses keeps its state, with the reason recorded.
func (s *Server) resumeRecord(rec jobs.Record) (jobs.Record, error) {
	s.jobsMu.Lock()
	_, active := s.jobRuns[rec.ID]
	s.jobsMu.Unlock()
	if active {
		return rec, fmt.Errorf("job %s is already queued or running", rec.ID)
	}
	pr, snap, err := s.prepareResume(rec)
	if err != nil {
		upd, _ := s.cfg.Jobs.Update(rec.ID, func(r *jobs.Record) { r.Error = "resume: " + err.Error() })
		return upd, err
	}
	prev := rec.State
	upd, err := s.cfg.Jobs.Update(rec.ID, func(r *jobs.Record) {
		r.State = jobs.Queued
		r.Error = ""
		if snap != nil {
			r.Resumes++
		}
	})
	if err != nil {
		return rec, err
	}
	if err := s.startAsync(rec.ID, pr, snap); err != nil {
		upd, _ = s.cfg.Jobs.Update(rec.ID, func(r *jobs.Record) {
			r.State = prev
			if snap != nil {
				r.Resumes--
			}
			r.Error = "resume admission: " + err.Error()
		})
		return upd, err
	}
	s.jobsResumed.Inc()
	return upd, nil
}

// prepareResume rebuilds the parsedRequest from the job's stored wire
// request and reads its checkpoint. The stored request must still hash
// to the job's ID: if the server's result-determining configuration
// changed across a restart (-reduce, -max-states), the work would no
// longer be what the checkpoint describes, and resuming under a stale
// identity is exactly the silent corruption the checkpoint container
// exists to prevent.
func (s *Server) prepareResume(rec jobs.Record) (*parsedRequest, *verify.EngineSnapshot, error) {
	pr, err := s.decodeRequest(rec.Request, sha256.Sum256(rec.Request))
	if err != nil {
		return nil, nil, fmt.Errorf("stored request does not resolve: %w", err)
	}
	if got := pr.key.RunID(); got != rec.ID {
		return nil, nil, fmt.Errorf("stored request now hashes to %s, not %s (server configuration changed); refusing to resume under a stale identity", got, rec.ID)
	}
	var snap *verify.EngineSnapshot
	if rec.CkptPath != "" {
		f, err := ckpt.ReadFor(rec.CkptPath, pr.key)
		if err != nil {
			s.ckptLoadErrors.Inc()
			return nil, nil, fmt.Errorf("checkpoint unusable: %w", err)
		}
		s.ckptLoads.Inc()
		snap = f.Snap
	}
	return pr, snap, nil
}

// startAsync registers and enqueues one async execution of job id.
func (s *Server) startAsync(id string, pr *parsedRequest, resume *verify.EngineSnapshot) error {
	ar := &asyncRun{id: id, resume: resume}
	j := &job{
		ctx:   context.Background(), // jobs outlive the submitting request
		id:    s.requestID(""),
		req:   pr,
		enqNS: nowUnixNS(),
		jr:    ar,
	}
	j.lr = &liveRun{
		runID:  id,
		reqID:  j.id,
		net:    pr.net.Name(),
		engine: pr.opts.Engine.String(),
		check:  pr.check,
		enqNS:  j.enqNS,
		pub:    obs.NewPublisher(),
		reg:    obs.New(),
	}
	s.jobsMu.Lock()
	s.jobRuns[id] = ar
	s.jobsMu.Unlock()
	s.registerRun(j.lr)
	if !s.enqueue(j) {
		s.deregisterRun(j.lr)
		j.lr.pub.Close()
		s.jobsMu.Lock()
		if s.jobRuns[id] == ar {
			delete(s.jobRuns, id)
		}
		s.jobsMu.Unlock()
		return errOverCapacity
	}
	return nil
}

// runAsyncJob executes one async job on a worker: the engine runs under
// a Checkpointer that auto-saves on the configured cadence and suspends
// on cancel, drain, or the job's soft deadline; the outcome settles the
// durable record. Unlike runJob there is no done channel — nobody is
// waiting — and the "deadline" is not an abort but a clean suspension.
func (s *Server) runAsyncJob(j *job) {
	ar, lr, id := j.jr, j.lr, j.jr.id
	defer func() {
		s.jobsMu.Lock()
		if s.jobRuns[id] == ar {
			delete(s.jobRuns, id)
		}
		s.jobsMu.Unlock()
	}()
	release := func() {
		s.deregisterRun(lr)
		lr.pub.Close()
		s.runSettled()
	}
	rec, ok := s.cfg.Jobs.Get(id)
	if !ok || rec.State != jobs.Queued || ar.cancel.Load() {
		// Canceled (or otherwise settled) while waiting in the queue.
		release()
		return
	}
	if s.draining.Load() {
		// Graceful drain: leave the job queued and durable instead of
		// burning it — the restarted server's ResumeJobs re-admits it.
		release()
		return
	}
	if _, err := s.cfg.Jobs.Update(id, func(r *jobs.Record) { r.State = jobs.Running }); err != nil {
		release()
		return
	}
	s.jobsActive.Add(1)
	defer s.jobsActive.Add(-1)

	startNS := nowUnixNS()
	lr.startNS.Store(startNS)
	// The request timeout is the job's per-execution slice: at its end
	// the job suspends with a checkpoint (resumable) rather than aborts.
	// The context deadline sits beyond it as a hard backstop for an
	// engine stuck inside one boundary-free stretch.
	slice := j.req.timeout
	grace := slice / 2
	if grace < 2*time.Second {
		grace = 2 * time.Second
	}
	if grace > 30*time.Second {
		grace = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), slice+grace)
	defer cancel()
	opts := j.req.opts
	opts.Ctx = ctx
	opts.Metrics = lr.reg
	prog := &obs.Progress{
		Label:    lr.runID,
		Every:    s.cfg.ProgressEvery,
		Interval: s.cfg.ProgressInterval,
		Report:   lr.pub.Publish,
	}
	opts.Progress = prog
	tr := s.newRunTracer(j, lr, &opts)
	opts.Resume = ar.resume

	// Job lifecycle events on their own track: each execution slice
	// opens with slice_begin (Arg1 = states already explored), notes
	// whether it re-entered from a checkpoint, stamps every checkpoint
	// save, and closes with its outcome — so a merged timeline shows
	// where a durable run's wall time went across suspensions.
	jt := s.newJobTraceEmitter(tr)
	jt.emit("slice_begin", int64(ar.resume.States()))
	if ar.resume != nil {
		jt.emit("resume", int64(ar.resume.States()))
	}

	deadline := time.Now().Add(slice)
	// The deadline suspends only past the boundary the slice entered on,
	// so every slice advances at least one boundary however short it is
	// or however late the worker got the CPU: a job resumed often enough
	// completes. Cancel and drain stop at once.
	entry := max(ar.resume.Boundary(), 0) // 0 for a fresh start
	lastSave := time.Now()
	lastStates := ar.resume.States() // 0 for a fresh start
	stopReason := ""
	opts.Ckpt = &verify.Checkpointer{
		Poll: func(states int, boundary int64) stop.Action {
			switch {
			case ar.cancel.Load():
				stopReason = "cancel"
				return stop.Suspend
			case s.draining.Load():
				stopReason = "drain"
				return stop.Suspend
			case boundary > entry && time.Now().After(deadline):
				stopReason = "deadline"
				return stop.Suspend
			}
			if s.cfg.CkptEveryStates > 0 && states-lastStates >= s.cfg.CkptEveryStates {
				return stop.Save
			}
			if s.cfg.CkptInterval > 0 && time.Since(lastSave) >= s.cfg.CkptInterval {
				return stop.Save
			}
			return stop.Continue
		},
		Save: func(snap *verify.EngineSnapshot) error {
			path := s.cfg.Jobs.CkptPath(id)
			f := &ckpt.File{Net: j.req.net, Check: j.req.check, Bad: j.req.bad, Opts: opts, Snap: snap}
			if err := ckpt.Write(path, f); err != nil {
				s.ckptSaveErrors.Inc()
				return err
			}
			s.ckptSaves.Inc()
			if st, err := os.Stat(path); err == nil {
				s.ckptBytes.Add(st.Size())
			}
			lastSave = time.Now()
			lastStates = snap.States()
			jt.emit("ckpt_save", int64(snap.States()))
			s.cfg.Jobs.Update(id, func(r *jobs.Record) {
				r.States = snap.States()
				r.Boundary = snap.Boundary()
				r.CkptPath = path
			})
			return nil
		},
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
	// Before the record below settles: a client polls it to learn the
	// job is over, and reads the metrics next.
	s.runSettled()

	var resp *Response
	tracePath := ""
	switch {
	case err != nil:
		s.failures.Inc()
		s.jobsFailed.Inc()
		jt.emit("slice_end:error", 0)
		s.cfg.Jobs.Update(id, func(r *jobs.Record) {
			r.State = jobs.Failed
			r.Error = err.Error()
		})
	default:
		resp = responseOf(j.req, rep)
		switch resp.Status {
		case StatusCheckpointed:
			// Suspended cleanly; Save already stamped the checkpoint
			// coordinates on the record.
			final := jobs.Checkpointed
			if stopReason == "cancel" {
				final = jobs.Canceled
				s.jobsCanceled.Inc()
			} else {
				s.jobsCheckpointed.Inc()
			}
			jt.emit("slice_end:"+stopReason, int64(resp.States))
			s.cfg.Jobs.Update(id, func(r *jobs.Record) { r.State = final })
		case StatusAborted:
			// The hard backstop killed the run between boundaries: no
			// checkpoint was cut at stop time. If an auto-checkpoint
			// exists the job resumes from it; otherwise it re-queues.
			s.aborts.Inc()
			jt.emit("slice_end:abort", int64(resp.States))
			if tr != nil && s.cfg.TraceSink != nil {
				s.cfg.TraceSink(j.id, tr.Dump())
				if s.cfg.TracePath != nil {
					tracePath = s.cfg.TracePath(j.id)
				}
			}
			s.jobsCheckpointed.Inc()
			s.cfg.Jobs.Update(id, func(r *jobs.Record) {
				if r.CkptPath != "" {
					r.State = jobs.Checkpointed
				} else {
					r.State = jobs.Queued
				}
				r.Error = "aborted between checkpoint boundaries"
			})
		default:
			s.jobsDone.Inc()
			jt.emit("done", int64(resp.States))
			if resp.Complete {
				s.cacheResult(j.req, resp)
			}
			b, merr := json.Marshal(resp)
			if merr != nil {
				b = nil
			}
			s.cfg.Jobs.Update(id, func(r *jobs.Record) {
				r.State = jobs.Done
				r.Result = b
				r.States = resp.States
				r.Error = ""
			})
		}
	}

	// Same introspection epilogue as runJob: verdict stored, stream
	// closed, ledger appended, metrics folded, registration dropped.
	tracePeers := s.retainTrace(j, lr, tr)
	lr.finish(resp, err)
	prog.Done()
	lr.pub.Close()
	if lerr := s.cfg.Ledger.Append(ledgerEntryOf(j, lr, resp, err, startNS, endNS, tracePath, tracePeers)); lerr != nil {
		s.ledgerErrors.Inc()
	}
	s.reg.Merge(lr.reg)
	s.deregisterRun(lr)
}
