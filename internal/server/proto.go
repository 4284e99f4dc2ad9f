package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/verify"
)

// Request is the body of POST /v1/verify. The system under verification
// is given either inline as pnio text (Net) or as a built-in benchmark
// family (Model, Size) — exactly one of the two.
type Request struct {
	// Net is the net in the pnio .pn text format.
	Net string `json:"net,omitempty"`
	// Model and Size name a built-in Table 1 family (models.ByName).
	Model string `json:"model,omitempty"`
	Size  int    `json:"size,omitempty"`
	// Engine is a verify engine name ("exhaustive", "partial-order",
	// "symbolic", "gpo", "gpo-explicit", "unfolding"); default "gpo".
	Engine string `json:"engine,omitempty"`
	// Check is "deadlock" (default) or "safety". Safety checks name the
	// places of the bad combination in Bad.
	Check string   `json:"check,omitempty"`
	Bad   []string `json:"bad,omitempty"`
	// StopAtFirst halts at the first deadlock/violation.
	StopAtFirst bool `json:"stop_at_first,omitempty"`
	// MaxStates/MaxNodes bound the search; the server clamps MaxStates to
	// its own Config.MaxStates cap.
	MaxStates int `json:"max_states,omitempty"`
	MaxNodes  int `json:"max_nodes,omitempty"`
	// Workers selects the exhaustive engine's parallel explorer. Results
	// are bit-identical to sequential, so this does not key the cache.
	Workers int `json:"workers,omitempty"`
	// Cluster is accepted on a server started with peers, for the
	// exhaustive engine; the run executes on the receiving member, and
	// the reply's Peers carries the cluster size. It changes nothing of
	// the answer, so it does not key the result cache.
	Cluster bool `json:"cluster,omitempty"`
	// Proviso applies the cycle proviso in the partial-order engine.
	Proviso bool `json:"proviso,omitempty"`
	// Reduce applies the structural reduction pre-pass before the engine
	// (verify.Options.Reduce). Result-stat-determining, so it keys the
	// result cache; the server's -reduce flag forces it on for every
	// request.
	Reduce bool `json:"reduce,omitempty"`
	// TimeoutMS is the per-request wall-clock budget; 0 uses the server
	// default, and the server clamps it to its configured ceiling.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Response is the Table-1-style result of a verification request.
type Response struct {
	// RunID is the content address of the work (verify.RunKey): the
	// handle GET /v1/runs/{id}, the ledger and GET /v1/runs/{id}/trace
	// all share. Identical for cached copies — it addresses the work,
	// not the execution.
	RunID string `json:"run_id,omitempty"`
	// Status is "ok" for a completed analysis and "aborted" when the
	// request deadline or a client disconnect stopped the exploration;
	// aborted statistics are partial and the verdict fields are not
	// meaningful. A search that overruns its MaxStates/MaxNodes budget
	// is neither: it answers 422 with the engine's limit error.
	Status string `json:"status"`
	// Cached marks a response served from the result cache.
	Cached   bool     `json:"cached"`
	Net      string   `json:"net"`
	Engine   string   `json:"engine"`
	Check    string   `json:"check"`
	Deadlock bool     `json:"deadlock"`
	Witness  []string `json:"witness,omitempty"`
	States   int      `json:"states"`
	PeakBDD  int      `json:"peak_bdd,omitempty"`
	PeakSets float64  `json:"peak_sets,omitempty"`
	// ElapsedNS is the engine wall clock of the run that produced the
	// result (the original run, for cached responses).
	ElapsedNS int64 `json:"elapsed_ns"`
	Complete  bool  `json:"complete"`
	// Peers is the cluster size when the request asked for cluster
	// execution (0 otherwise). Set on the original run's response only,
	// never on cached copies.
	Peers int `json:"peers,omitempty"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}

const (
	// StatusOK, StatusAborted and StatusCheckpointed are the
	// Response.Status values. Checkpointed marks a job suspended cleanly
	// at an engine boundary with a resumable checkpoint on disk — its
	// statistics are partial like an abort's, but the run can continue.
	StatusOK           = "ok"
	StatusAborted      = "aborted"
	StatusCheckpointed = "checkpointed"

	// CheckDeadlock and CheckSafety are the Request.Check values.
	CheckDeadlock = "deadlock"
	CheckSafety   = "safety"
)

// maxRequestBytes bounds the request body the service will read: the
// pnio parser is hardened, but an http server should not buffer
// arbitrarily large untrusted bodies in the first place.
const maxRequestBytes = 8 << 20

// transNames lists a net's transition names in index order, the table a
// per-request tracer needs to render fire events readably.
func transNames(n *petri.Net) []string {
	names := make([]string, n.NumTrans())
	for t := range names {
		names[t] = n.TransName(petri.Trans(t))
	}
	return names
}

// parsedRequest is a Request after resolution and validation.
type parsedRequest struct {
	net   *petri.Net
	check string
	bad   []petri.Place
	opts  verify.Options // Ctx and Metrics filled in by the worker
	key   cacheKey
	// digest is the body the request was decoded from; the result cache
	// indexes the run's entry under it.
	digest  bodyDigest
	timeout time.Duration
	// cluster asks for the cluster size to be stamped on the reply;
	// lease marks that the handler holds the shared tier's single-flight
	// lease for this key, which the worker settles (tierSettle).
	cluster bool
	lease   bool
}

// badRequestError marks request-resolution failures so the handler can
// answer 400 instead of 500.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// bodyPool recycles request-body buffers between requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer releaseBody keeps: one multi-
// megabyte request must not pin its buffer in the pool afterwards.
const maxPooledBody = 64 << 10

// readBody reads r's body, at most maxRequestBytes of it, into a pooled
// buffer and digests it. The caller hands the buffer to releaseBody
// once nothing refers to its bytes any more.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bodyDigest, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes)); err != nil {
		releaseBody(buf)
		return nil, bodyDigest{}, badRequestf("bad request body: %v", err)
	}
	return buf, sha256.Sum256(buf.Bytes()), nil
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeRequest is the one way a request body becomes a parsedRequest:
// a single JSON value with no unknown field and nothing but white space
// after it, resolved by parseRequest. digest is the body's.
func (s *Server) decodeRequest(body []byte, digest bodyDigest) (*parsedRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, badRequestf("bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, badRequestf("bad request body: data after the JSON value")
	}
	pr, err := s.parseRequest(&req)
	if err != nil {
		return nil, err
	}
	pr.digest = digest
	return pr, nil
}

// requestFailure maps an error of readBody or decodeRequest to the HTTP
// status, access-log outcome and message that answer it.
func requestFailure(err error) (code int, outcome, msg string) {
	var bre *badRequestError
	if errors.As(err, &bre) {
		return http.StatusBadRequest, "bad_request", bre.msg
	}
	return http.StatusInternalServerError, "error", err.Error()
}

// parseRequest resolves a wire Request against the server's limits:
// builds the net, resolves engine/check/places, clamps bounds, and
// computes the content-addressed cache key.
func (s *Server) parseRequest(req *Request) (*parsedRequest, error) {
	var (
		net *petri.Net
		err error
	)
	switch {
	case req.Net != "" && req.Model != "":
		return nil, badRequestf("give either net or model, not both")
	case req.Net != "":
		net, err = pnio.Parse(strings.NewReader(req.Net))
		if err != nil {
			return nil, badRequestf("bad net: %v", err)
		}
	case req.Model != "":
		net, err = models.ByName(req.Model, req.Size)
		if err != nil {
			return nil, badRequestf("bad model: %v", err)
		}
	default:
		return nil, badRequestf("missing net or model")
	}

	engineName := req.Engine
	if engineName == "" {
		engineName = "gpo"
	}
	engine, err := verify.ParseEngine(engineName)
	if err != nil {
		return nil, badRequestf("bad engine: %v", err)
	}

	check := req.Check
	if check == "" {
		check = CheckDeadlock
	}
	var bad []petri.Place
	switch check {
	case CheckDeadlock:
		if len(req.Bad) > 0 {
			return nil, badRequestf("bad places given for a deadlock check")
		}
	case CheckSafety:
		if len(req.Bad) == 0 {
			return nil, badRequestf("safety check needs bad places")
		}
		for _, name := range req.Bad {
			p, ok := net.PlaceByName(name)
			if !ok {
				return nil, badRequestf("unknown place %q", name)
			}
			bad = append(bad, p)
		}
	default:
		return nil, badRequestf("bad check %q (want %q or %q)", check, CheckDeadlock, CheckSafety)
	}

	maxStates := req.MaxStates
	if s.cfg.MaxStates > 0 && (maxStates <= 0 || maxStates > s.cfg.MaxStates) {
		maxStates = s.cfg.MaxStates
	}
	opts := verify.Options{
		Engine:      engine,
		StopAtFirst: req.StopAtFirst,
		MaxStates:   maxStates,
		MaxNodes:    req.MaxNodes,
		Workers:     req.Workers,
		Proviso:     req.Proviso,
		Reduce:      req.Reduce || s.cfg.Reduce,
	}
	if err := opts.Validate(); err != nil {
		return nil, badRequestf("%v", err)
	}
	if req.Cluster {
		if s.cfg.Cluster == nil {
			return nil, badRequestf("cluster requested but this server has no peers configured")
		}
		if engine != verify.Exhaustive {
			return nil, badRequestf("cluster execution requires the exhaustive engine, not %q", engine)
		}
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout <= 0 || timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	return &parsedRequest{
		net:     net,
		check:   check,
		bad:     bad,
		opts:    opts,
		key:     requestKey(net, check, bad, opts),
		timeout: timeout,
		cluster: req.Cluster,
	}, nil
}

// responseOf converts a verify Report into the wire Response.
func responseOf(pr *parsedRequest, rep *verify.Report) *Response {
	resp := &Response{
		RunID:     pr.key.RunID(),
		Status:    StatusOK,
		Net:       rep.Net,
		Engine:    rep.Engine.String(),
		Check:     pr.check,
		Deadlock:  rep.Deadlock,
		States:    rep.States,
		PeakBDD:   rep.PeakBDD,
		PeakSets:  rep.PeakSets,
		ElapsedNS: int64(rep.Elapsed),
		Complete:  rep.Complete,
	}
	if rep.Aborted {
		resp.Status = StatusAborted
	}
	if rep.Checkpointed {
		resp.Status = StatusCheckpointed
	}
	if rep.Witness != nil {
		for _, p := range rep.Witness.Places() {
			resp.Witness = append(resp.Witness, pr.net.PlaceName(p))
		}
	}
	return resp
}
