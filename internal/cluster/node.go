package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/reach"
	"repro/internal/visited"
)

// Config describes one cluster member. Peers lists every member —
// including this node — as base URLs; Self must match one of them
// exactly. The topology is uniform: a coordinator also expands its share
// of every wide level, and asks itself over the same HTTP loopback as
// anyone else.
type Config struct {
	Self    string   // this node's base URL, e.g. http://127.0.0.1:7700
	Peers   []string // all member base URLs, order defines shard ranges
	Metrics *obs.Registry
	Client  *http.Client  // nil = persistent keep-alive client
	Timeout time.Duration // per-RPC timeout, 0 = default
}

const defaultRPCTimeout = 60 * time.Second

// Node is one cluster member: expander of its shards' share of the wide
// levels of exploration jobs, the ring that places every run's result
// on one member (Owner), and coordinator for any run it is asked to
// Explore.
type Node struct {
	self    int
	peers   []string
	ranges  [][2]int             // per-peer [lo, hi) shard range
	owners  [reach.NumShards]int // shard -> peer index
	client  *http.Client
	timeout time.Duration
	reg     *obs.Registry

	mu   sync.Mutex
	jobs map[string]*peerJob
	seq  int64

	ring   []ringEntry
	traces *traceStore
}

// peerJob is this node's part of one in-flight exploration: the parsed
// net, the bad places, and seen — every parent this peer was sent and
// every successor it reported. Each of those is interned at the
// coordinator by the end of the level that put it here, so an expand
// reply leaves them out.
type peerJob struct {
	mu   sync.Mutex // serializes expands, which the level loop already does
	net  *petri.Net
	bad  []petri.Place
	seen visited.Store

	// Tracing, enabled when the coordinator propagated a run ID in
	// startReq.TraceRun; tk is the expand lane. All fields stay zero for
	// untraced jobs; every emit is a nil-track no-op then.
	run         string
	tr          *trace.Tracer
	tk          *trace.Track
	phExpand    int64
	phSerialize int64
}

// startReq is the JSON body of /cluster/v1/start. The net travels in
// its canonical pnio text form, so the peer reconstructs place and
// transition indices in the exact order the coordinator holds them.
type startReq struct {
	Job string   `json:"job"`
	Net string   `json:"net"`
	Bad []string `json:"bad,omitempty"`
	// TraceRun is the content-addressed run ID when the coordinator is
	// recording; peers that see it record their own slice of the run
	// under the same identity. Empty = tracing off.
	TraceRun string `json:"trace_run,omitempty"`
}

type finishReq struct {
	Job string `json:"job"`
}

// New validates the membership and builds a node. All cluster.* node
// counters are created up front so a freshly started node exports the
// full documented metric set before any traffic.
func New(cfg Config) (*Node, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: no peers configured")
	}
	self := -1
	seen := make(map[string]bool, len(cfg.Peers))
	for i, p := range cfg.Peers {
		p = strings.TrimRight(p, "/")
		if p == "" {
			return nil, errors.New("cluster: empty peer URL")
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %s", p)
		}
		seen[p] = true
		cfg.Peers[i] = p
		if p == strings.TrimRight(cfg.Self, "/") {
			self = i
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", cfg.Self)
	}
	nd := &Node{
		self:    self,
		peers:   cfg.Peers,
		client:  cfg.Client,
		timeout: cfg.Timeout,
		reg:     cfg.Metrics,
		jobs:    make(map[string]*peerJob),
	}
	if nd.client == nil {
		tr := &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
		nd.client = &http.Client{Transport: tr}
	}
	if nd.timeout <= 0 {
		nd.timeout = defaultRPCTimeout
	}
	if nd.reg == nil {
		nd.reg = obs.New()
	}
	nd.ring = newRing(nd.peers)
	nd.traces = newTraceStore()

	// Static shard ownership: the contiguous ranges the parallel explorer
	// gives its workers.
	n := len(nd.peers)
	nd.ranges = reach.ShardRanges(n)
	for i, r := range nd.ranges {
		for s := r[0]; s < r[1]; s++ {
			nd.owners[s] = i
		}
	}

	// Node-persistent counters, created eagerly for the docs drift test.
	nd.reg.Gauge("cluster.peers").Set(int64(n))
	for _, name := range []string{
		"cluster.expand_batches_in",
		"cluster.expand_bytes_in",
		"cluster.trace_collects",
	} {
		nd.reg.Counter(name)
	}
	nd.reg.Gauge("cluster.jobs").Set(0)
	nd.reg.Gauge("cluster.trace_dumps").Set(0)
	return nd, nil
}

// NumPeers returns the cluster size.
func (nd *Node) NumPeers() int { return len(nd.peers) }

// Self returns this node's base URL.
func (nd *Node) Self() string { return nd.peers[nd.self] }

// Index returns this node's position in the peer list.
func (nd *Node) Index() int { return nd.self }

// Register mounts the cluster protocol endpoints on mux.
func (nd *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/v1/start", nd.handleStart)
	mux.HandleFunc("POST /cluster/v1/expand", nd.handleExpand)
	mux.HandleFunc("POST /cluster/v1/finish", nd.handleFinish)
	mux.HandleFunc("POST /cluster/v1/trace", nd.handleTrace)
}

// job resolves the request's X-Cluster-Job header; for an unknown job it
// answers 404 itself and returns nil.
func (nd *Node) job(w http.ResponseWriter, r *http.Request) (*peerJob, string) {
	id := r.Header.Get("X-Cluster-Job")
	nd.mu.Lock()
	j := nd.jobs[id]
	nd.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "cluster: unknown job %q", id)
	}
	return j, id
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (nd *Node) handleStart(w http.ResponseWriter, r *http.Request) {
	var req startReq
	if err := json.NewDecoder(io.LimitReader(r.Body, MaxFrame)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "cluster: bad start body: %v", err)
		return
	}
	if req.Job == "" {
		httpError(w, http.StatusBadRequest, "cluster: start without job id")
		return
	}
	n, err := pnio.Parse(strings.NewReader(req.Net))
	if err != nil {
		httpError(w, http.StatusBadRequest, "cluster: start net: %v", err)
		return
	}
	var bad []petri.Place
	for _, name := range req.Bad {
		p, ok := n.PlaceByName(name)
		if !ok {
			httpError(w, http.StatusBadRequest, "cluster: start: unknown bad place %q", name)
			return
		}
		bad = append(bad, p)
	}
	j := &peerJob{net: n, bad: bad}
	if req.TraceRun != "" {
		j.run = req.TraceRun
		j.tr = trace.New(trace.Options{})
		j.tr.SetMeta("run_id", req.TraceRun)
		j.tr.SetMeta("peer", nd.peers[nd.self])
		j.tr.SetMeta("role", "peer")
		j.tr.SetMeta("base_unix_ns", strconv.FormatInt(j.tr.Base().UnixNano(), 10))
		j.tk = j.tr.NewTrack("peer")
		j.phExpand = j.tr.Intern("expand")
		j.phSerialize = j.tr.Intern("serialize")
	}
	nd.mu.Lock()
	nd.jobs[req.Job] = j
	nd.reg.Gauge("cluster.jobs").Set(int64(len(nd.jobs)))
	nd.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (nd *Node) handleFinish(w http.ResponseWriter, r *http.Request) {
	var req finishReq
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "cluster: bad finish body: %v", err)
		return
	}
	nd.mu.Lock()
	j := nd.jobs[req.Job]
	delete(nd.jobs, req.Job)
	nd.reg.Gauge("cluster.jobs").Set(int64(len(nd.jobs)))
	nd.mu.Unlock()
	// A traced job's node-side dump outlives the job so the collector
	// can fetch it after the verdict.
	if j != nil && j.tr != nil {
		nd.traces.put(j.run, j.tr.Dump())
		nd.reg.Gauge("cluster.trace_dumps").Set(int64(nd.traces.len()))
	}
	w.WriteHeader(http.StatusOK)
}

// handleExpand fires every enabled transition of each parent it is sent
// and replies with verdict flags, examined orders, the minimal unsafe
// firing, and the successors not in the job's seen store.
func (nd *Node) handleExpand(w http.ResponseWriter, r *http.Request) {
	j, _ := nd.job(w, r)
	if j == nil {
		return
	}
	cr := &countingReader{r: r.Body}
	parents, err := decodeBatch(cr, frameExpand, j.net.Words())
	if err != nil {
		httpError(w, http.StatusBadRequest, "cluster: expand body: %v", err)
		return
	}
	for i := 1; i < parents.len(); i++ {
		if parents.vals[i] <= parents.vals[i-1] {
			httpError(w, http.StatusBadRequest, "cluster: expand positions are not strictly ascending at entry %d", i)
			return
		}
	}
	nd.reg.Counter("cluster.expand_batches_in").Inc()
	nd.reg.Counter("cluster.expand_bytes_in").Add(cr.n)
	pid := seqHeader(r)
	j.mu.Lock()
	j.tk.FrameRecv(pid, cr.n)
	body := j.expand(parents, trace.PairLevel(pid))
	// Every reply is stamped before it is written: once the bytes are out
	// the coordinator may stamp its receive and send the next RPC, whose
	// handler writes this same track.
	j.tk.FrameSend(pid, int64(body.Len()))
	j.mu.Unlock()
	_, _ = w.Write(body.Bytes()) // an error means the client is gone
}

// expand computes the reply to one expand batch. Positions ascend, and
// transitions ascend within a position, so every successor is met here
// in ascending order key: a seen one is already interned at the
// coordinator, or was reported earlier in this reply under a smaller
// key, and is left out.
func (j *peerJob) expand(parents *batch, lvl int64) *bytes.Buffer {
	n := j.net
	j.tk.Emit(trace.KindPhaseBegin, j.phExpand, lvl)
	for i := range parents.vals {
		m := parents.marking(i)
		if hash := m.Hash(); j.seen.Lookup(m, hash) < 0 {
			j.seen.Insert(m, hash)
		}
	}
	re := &expandReply{flags: make([]byte, parents.len())}
	news := &batch{w: n.Words()}
	next := n.EmptyMarking()
	var en []petri.Trans
	for i, pos := range parents.vals {
		m := parents.marking(i)
		en = n.AppendEnabled(en[:0], m)
		for _, t := range en {
			order := reach.OrderKey(int(pos), t)
			if !n.FireInto(next, m, t) {
				if !re.hasVio {
					re.hasVio, re.vioOrder = true, order
				}
				continue
			}
			re.orders = append(re.orders, order)
			if hash := next.Hash(); j.seen.Lookup(next, hash) < 0 {
				j.seen.Insert(next, hash)
				news.add(next, order)
			}
		}
		if len(en) == 0 {
			re.flags[i] |= flagDead
		}
		// Same predicate as verify.CheckSafety: ALL bad places marked
		// simultaneously.
		if len(j.bad) > 0 {
			allMarked := true
			for _, p := range j.bad {
				if !m.Has(p) {
					allMarked = false
					break
				}
			}
			if allMarked {
				re.flags[i] |= flagBad
			}
		}
	}
	j.tk.Emit(trace.KindPhaseEnd, j.phExpand, lvl)
	j.tk.Expanded(int64(parents.len()), lvl)
	j.tk.Emit(trace.KindPhaseBegin, j.phSerialize, lvl)
	body := re.body(news)
	j.tk.Emit(trace.KindPhaseEnd, j.phSerialize, lvl)
	return body
}

// seqHeader reads the wire-edge pair id the coordinator stamped on the
// RPC (0 when absent or malformed — every emit keyed by it no-ops on
// untraced jobs anyway).
func seqHeader(r *http.Request) int64 {
	v, _ := strconv.ParseInt(r.Header.Get("X-Cluster-Seq"), 10, 64)
	return v
}

// countingReader tallies bytes for the frontier byte metrics.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// post runs one cluster RPC against a peer with the node's timeout.
// seq is the wire-edge pair id stamped as X-Cluster-Seq (0 = untraced,
// no header). The body reader is handed to the caller, which must
// close it.
func (nd *Node) post(ctx context.Context, peer int, path, jobID string, seq int64, body *bytes.Buffer, contentType string) (*http.Response, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(ctx, nd.timeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, nd.peers[peer]+path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if jobID != "" {
		req.Header.Set("X-Cluster-Job", jobID)
	}
	if seq != 0 {
		req.Header.Set("X-Cluster-Seq", strconv.FormatInt(seq, 10))
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := nd.client.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, nil, fmt.Errorf("%s%s: %s: %s", nd.peers[peer], path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return resp, cancel, nil
}

// PostJSON runs one JSON-bodied RPC against a peer and decodes the
// JSON reply into reply, or discards it when reply is nil.
func (nd *Node) PostJSON(ctx context.Context, peer int, path string, req, reply any) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, cancel, err := nd.post(ctx, peer, path, "", 0, bytes.NewBuffer(b), "application/json")
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if reply == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(io.LimitReader(resp.Body, MaxFrame)).Decode(reply)
}

// PeerStatus is one member's row in the cluster status document.
type PeerStatus struct {
	Addr    string `json:"addr"`
	ShardLo int    `json:"shard_lo"`
	ShardHi int    `json:"shard_hi"` // exclusive
	Self    bool   `json:"self,omitempty"`
}

// Status is the GET /v1/cluster document: static membership plus this
// node's live cluster counters.
type Status struct {
	Self    string           `json:"self"`
	Peers   []PeerStatus     `json:"peers"`
	Jobs    int              `json:"jobs"`
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Status reports the node's membership, shard ranges, and cluster.*
// counter values.
func (nd *Node) Status() *Status {
	st := &Status{Self: nd.peers[nd.self]}
	for i, p := range nd.peers {
		st.Peers = append(st.Peers, PeerStatus{
			Addr:    p,
			ShardLo: nd.ranges[i][0],
			ShardHi: nd.ranges[i][1],
			Self:    i == nd.self,
		})
	}
	nd.mu.Lock()
	st.Jobs = len(nd.jobs)
	nd.mu.Unlock()
	snap := nd.reg.Snapshot()
	st.Metrics = make(map[string]int64)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "cluster.") {
			st.Metrics[name] = v
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "cluster.") {
			st.Metrics[name] = v
		}
	}
	return st
}
