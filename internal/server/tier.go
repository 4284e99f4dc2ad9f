package server

// The shared result tier (DESIGN.md D10). On a cluster member the result
// cache is also this node's share of one fleet-wide cache: the cluster
// ring places every run on one member (cluster.Node.Owner), and a local
// miss asks that owner before computing. The owner answers from its own
// result cache and runs single-flight suppression there
// (resultCache.acquire). When this node owns the key nothing goes over
// HTTP; otherwise the three RPCs below carry the full key in hex, never
// the 96-bit run ID, because the tier serves verdicts under it (D14).

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"time"
)

const (
	tierAcquirePath = "/cluster/v1/cache/acquire"
	tierPutPath     = "/cluster/v1/cache/put"
	tierReleasePath = "/cluster/v1/cache/release"
)

// tierReq is the body of the tier RPCs. WaitMS is acquire's: how long
// the owner may hold the call behind another requester's lease.
// Response is put's.
type tierReq struct {
	Key      string    `json:"key"`
	WaitMS   int64     `json:"wait_ms,omitempty"`
	Response *Response `json:"response,omitempty"`
}

// tierReply answers an acquire; a hit carries the stored result.
type tierReply struct {
	Status   string    `json:"status"`
	Response *Response `json:"response,omitempty"`
}

var tierStatus = [...]string{tierCompute: "compute", tierLease: "lease", tierHit: "hit"}

// registerTier mounts the owner's side of the tier and gives the cache
// the tier's counters.
func (s *Server) registerTier() {
	s.remoteHits = s.reg.Counter("cluster.remote_cache_hits")
	waits := s.reg.Counter("cluster.singleflight_waits")
	if s.cache != nil {
		s.cache.remoteHits, s.cache.waits = s.remoteHits, waits
	}
	s.mux.HandleFunc("POST "+tierAcquirePath, s.handleTierAcquire)
	s.mux.HandleFunc("POST "+tierPutPath, s.handleTierPut)
	s.mux.HandleFunc("POST "+tierReleasePath, s.handleTierRelease)
}

// tierResult reports whether resp may enter the tier under key: a
// complete, uncancelled result of that run.
func tierResult(key cacheKey, resp *Response) bool {
	return resp != nil && resp.Status == StatusOK && resp.Complete && resp.RunID == key.RunID()
}

// tierAcquire consults the tier after a local miss: a hit, the lease,
// or compute without one. A hit from a peer owner is cached here too.
// A failed RPC, or a reply that is not a result of this run, is
// tierCompute.
func (s *Server) tierAcquire(ctx context.Context, pr *parsedRequest) (*Response, tierOutcome) {
	nd := s.cfg.Cluster
	owner := nd.Owner(pr.key.RunID())
	if owner == nd.Index() {
		e, out := s.cache.acquire(ctx, pr.key, pr.timeout)
		if out != tierHit {
			return nil, out
		}
		s.cache.indexBody(pr.key, pr.digest)
		return s.cache.answer(e), tierHit
	}
	var rep tierReply
	req := tierReq{Key: hex.EncodeToString(pr.key[:]), WaitMS: pr.timeout.Milliseconds()}
	if err := nd.PostJSON(ctx, owner, tierAcquirePath, req, &rep); err != nil {
		return nil, tierCompute
	}
	if rep.Status == tierStatus[tierLease] {
		return nil, tierLease
	}
	if rep.Status != tierStatus[tierHit] || !tierResult(pr.key, rep.Response) {
		return nil, tierCompute
	}
	s.cache.store(pr.key, rep.Response, true)
	s.cache.indexBody(pr.key, pr.digest)
	s.remoteHits.Inc()
	rep.Response.Cached = true
	return rep.Response, tierHit
}

// tierSettle closes a tier miss once its run is over. A result goes to
// the owner whether or not pr held the lease: a put is idempotent, and
// it wakes the requesters waiting on the key. Without one, a held lease
// is given back, so they compute themselves. Both outlive the request
// that ran: the waiters are other requests.
func (s *Server) tierSettle(pr *parsedRequest, resp *Response) {
	nd := s.cfg.Cluster
	if tierResult(pr.key, resp) {
		owner := nd.Owner(pr.key.RunID())
		if owner == nd.Index() {
			return // cacheResult stored it, which settled the lease
		}
		req := tierReq{Key: hex.EncodeToString(pr.key[:]), Response: resp}
		if nd.PostJSON(context.Background(), owner, tierPutPath, req, nil) == nil {
			return
		}
	}
	if pr.lease {
		s.tierRelease(pr)
	}
}

// tierRelease gives back the lease pr holds.
func (s *Server) tierRelease(pr *parsedRequest) {
	nd := s.cfg.Cluster
	if owner := nd.Owner(pr.key.RunID()); owner != nd.Index() {
		// A lost release costs the waiters their wait, nothing more.
		_ = nd.PostJSON(context.Background(), owner, tierReleasePath, tierReq{Key: hex.EncodeToString(pr.key[:])}, nil)
		return
	}
	s.cache.release(pr.key)
}

// decodeTierReq reads a tier RPC body of at most limit bytes. A
// malformed body or key is answered 400 here.
func decodeTierReq(w http.ResponseWriter, r *http.Request, limit int64) (tierReq, cacheKey, bool) {
	var req tierReq
	var key cacheKey
	err := json.NewDecoder(io.LimitReader(r.Body, limit)).Decode(&req)
	if err == nil && len(req.Key) != hex.EncodedLen(len(key)) {
		err = hex.ErrLength
	}
	if err == nil {
		_, err = hex.Decode(key[:], []byte(req.Key))
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "cluster: bad cache request (want a 64-hex-digit key): " + err.Error()})
		return req, key, false
	}
	return req, key, true
}

func (s *Server) handleTierAcquire(w http.ResponseWriter, r *http.Request) {
	req, key, ok := decodeTierReq(w, r, 1<<16)
	if !ok {
		return
	}
	e, out := s.cache.acquire(r.Context(), key, time.Duration(req.WaitMS)*time.Millisecond)
	rep := tierReply{Status: tierStatus[out]}
	if out == tierHit {
		rep.Response = &e.resp
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleTierPut(w http.ResponseWriter, r *http.Request) {
	req, key, ok := decodeTierReq(w, r, maxRequestBytes)
	if !ok {
		return
	}
	if !tierResult(key, req.Response) {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "cluster: put is not a complete result of run " + key.RunID()})
		return
	}
	s.cache.store(key, req.Response, true)
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleTierRelease(w http.ResponseWriter, r *http.Request) {
	if _, key, ok := decodeTierReq(w, r, 1<<16); ok {
		s.cache.release(key)
		w.WriteHeader(http.StatusOK)
	}
}
