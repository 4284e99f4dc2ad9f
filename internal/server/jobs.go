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
// ckpt/v3 files) lives in internal/jobs and internal/ckpt; this file
// owns the HTTP handlers and what a job's slice adds to the one worker
// body (Server.run): the claim, the Checkpointer and the record's
// terminal transition.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/jobs"
	"repro/internal/obs/trace"
	"repro/internal/stop"
	"repro/internal/verify"
)

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
	if j := s.liveJob(rec.ID); j != nil {
		st := j.status()
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
	if err := s.startAsync(pr, nil); err != nil {
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
	code := http.StatusOK
	// Record and worker are read together under jobsMu, which a worker
	// holds to claim a job and to settle it.
	s.jobsMu.Lock()
	rec, ok := s.cfg.Jobs.Get(id)
	j := s.jobRuns[id]
	switch {
	case !ok:
	case rec.State == jobs.Running && j != nil:
		// 202: the worker checkpoints at the next boundary and settles the
		// record to canceled; poll GET /v1/jobs/{id} for the transition.
		j.cancel.Store(true)
		code = http.StatusAccepted
	case rec.State == jobs.Queued || rec.State == jobs.Running:
		// Queued (the worker that dequeues it finds it gone from jobRuns
		// and skips it), or running with no worker — stale state from an
		// earlier crash this process never repaired: settle it.
		if j != nil {
			delete(s.jobRuns, id)
			s.deregisterRun(j)
		}
		rec, _ = s.cfg.Jobs.Update(id, func(r *jobs.Record) { r.State = jobs.Canceled })
		s.jobsCanceled.Inc()
	}
	// Done, Failed, Canceled, Checkpointed: already settled.
	s.jobsMu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
		return
	}
	writeJSON(w, code, s.jobView(rec))
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
	if err := s.startAsync(pr, snap); err != nil {
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

// startAsync admits one execution of the job of pr, re-entering resume
// (nil = fresh start).
func (s *Server) startAsync(pr *parsedRequest, resume *verify.EngineSnapshot) error {
	j := newJob(context.Background(), s.requestID(""), pr) // jobs outlive the submitting request
	j.resume = resume
	if !s.admit(j) {
		return errOverCapacity
	}
	return nil
}

// claim moves a dequeued job's record from queued to running. False
// leaves the record as it is: the job was canceled or settled while it
// waited, or the server is draining — then it stays queued and durable
// instead of burning, and the restarted server's ResumeJobs re-admits it.
func (s *Server) claim(j *job) bool {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	rec, ok := s.cfg.Jobs.Get(j.runID)
	if !ok || rec.State != jobs.Queued || s.jobRuns[j.runID] != j || s.draining.Load() {
		return false
	}
	_, err := s.cfg.Jobs.Update(j.runID, func(r *jobs.Record) { r.State = jobs.Running })
	return err == nil
}

// slice is one execution of a durable job. The request timeout is its
// budget, and at its end the job suspends with a checkpoint (resumable)
// rather than aborts; reason is why the Checkpointer suspended it.
type slice struct {
	jt     *jobTraceEmitter
	reason string // "cancel", "drain" or "deadline"
}

// startSlice arms opts for one slice of j: the snapshot it re-enters
// from, and a Checkpointer that auto-saves on the configured cadence and
// suspends on cancel, drain or the end of the slice.
func (s *Server) startSlice(j *job, tr *trace.Tracer, opts *verify.Options) *slice {
	s.jobsActive.Add(1)
	sl := &slice{jt: s.newJobTraceEmitter(tr)}
	opts.Resume = j.resume
	// Job lifecycle events on their own track: each execution slice
	// opens with slice_begin (Arg1 = states already explored), notes
	// whether it re-entered from a checkpoint, stamps every checkpoint
	// save, and closes with its outcome — so a merged timeline shows
	// where a durable run's wall time went across suspensions.
	sl.jt.emit("slice_begin", int64(j.resume.States()))
	if j.resume != nil {
		sl.jt.emit("resume", int64(j.resume.States()))
	}
	deadline := time.Now().Add(j.req.timeout)
	// The deadline suspends only past the boundary the slice entered on,
	// so every slice advances at least one boundary however short it is
	// or however late the worker got the CPU: a job resumed often enough
	// completes. Cancel and drain stop at once.
	entry := max(j.resume.Boundary(), 0) // 0 for a fresh start
	lastSave := time.Now()
	lastStates := j.resume.States() // 0 for a fresh start
	opts.Ckpt = &verify.Checkpointer{
		Poll: func(states int, boundary int64) stop.Action {
			switch {
			case j.cancel.Load():
				sl.reason = "cancel"
				return stop.Suspend
			case s.draining.Load():
				sl.reason = "drain"
				return stop.Suspend
			case boundary > entry && time.Now().After(deadline):
				sl.reason = "deadline"
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
			path := s.cfg.Jobs.CkptPath(j.runID)
			f := &ckpt.File{Net: j.req.net, Check: j.req.check, Bad: j.req.bad, Opts: *opts, Snap: snap}
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
			sl.jt.emit("ckpt_save", int64(snap.States()))
			s.cfg.Jobs.Update(j.runID, func(r *jobs.Record) {
				r.States = snap.States()
				r.Boundary = snap.Boundary()
				r.CkptPath = path
			})
			return nil
		},
	}
	return sl
}

// endSlice counts a finished slice, closes it on the job track, and
// returns the terminal transition of the job's record.
func (s *Server) endSlice(sl *slice, resp *Response, err error) func(*jobs.Record) {
	s.jobsActive.Add(-1)
	switch {
	case err != nil:
		s.jobsFailed.Inc()
		sl.jt.emit("slice_end:error", 0)
		return func(r *jobs.Record) {
			r.State = jobs.Failed
			r.Error = err.Error()
		}
	case resp.Status == StatusCheckpointed:
		// Suspended cleanly; Save already stamped the checkpoint
		// coordinates on the record.
		final := jobs.Checkpointed
		if sl.reason == "cancel" {
			final = jobs.Canceled
			s.jobsCanceled.Inc()
		} else {
			s.jobsCheckpointed.Inc()
		}
		sl.jt.emit("slice_end:"+sl.reason, int64(resp.States))
		return func(r *jobs.Record) { r.State = final }
	case resp.Status == StatusAborted:
		// The hard backstop killed the run between boundaries: no
		// checkpoint was cut at stop time. If an auto-checkpoint exists
		// the job resumes from it; otherwise it re-queues.
		s.jobsCheckpointed.Inc()
		sl.jt.emit("slice_end:abort", int64(resp.States))
		return func(r *jobs.Record) {
			if r.CkptPath != "" {
				r.State = jobs.Checkpointed
			} else {
				r.State = jobs.Queued
			}
			r.Error = "aborted between checkpoint boundaries"
		}
	default:
		s.jobsDone.Inc()
		sl.jt.emit("done", int64(resp.States))
		b, _ := json.Marshal(resp) // a Response has no type Marshal refuses
		return func(r *jobs.Record) {
			r.State = jobs.Done
			r.Result = b
			r.States = resp.States
			r.Error = ""
		}
	}
}
