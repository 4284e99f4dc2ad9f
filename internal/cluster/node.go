package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/reach"
	"repro/internal/visited"
)

// Config describes one cluster member. Peers lists every member —
// including this node — as base URLs; Self must match one of them
// exactly. The topology is uniform: a coordinator is also a shard
// owner and talks to itself over the same HTTP loopback as to anyone
// else, so there is no special-cased local path to drift from the
// remote one.
type Config struct {
	Self       string   // this node's base URL, e.g. http://127.0.0.1:7700
	Peers      []string // all member base URLs, order defines shard ranges
	Metrics    *obs.Registry
	CacheBytes int64         // shared result tier budget, 0 = default
	Client     *http.Client  // nil = persistent keep-alive client
	Timeout    time.Duration // per-RPC timeout, 0 = default
}

const (
	defaultCacheBytes = 16 << 20
	defaultRPCTimeout = 60 * time.Second
)

// Node is one cluster member: shard owner for exploration jobs,
// key-range owner for the shared result tier, and coordinator for any
// run it is asked to Explore.
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

	cache  *sharedCache
	traces *traceStore
}

// peerJob is this node's slice of one in-flight exploration: the
// parsed net, the bad places, and the owned portion of the visited
// store. Markings below store id `established` were committed by earlier
// levels; the ids from there on are the current level's pending
// discoveries, pend[id-established] the minimal order key of each.
type peerJob struct {
	mu          sync.Mutex
	net         *petri.Net
	bad         []petri.Place
	store       visited.Store
	established int
	pend        []uint64
	cut         bool // a commit left pending discoveries unassigned: the run is over

	// Tracing, enabled when the coordinator propagated a run ID in
	// startReq.TraceRun. tk is the expand/collect/commit lane — those
	// handlers are serialized by the coordinator's level protocol —
	// while inbound intern batches arrive concurrently from sibling
	// peers and land on tkIntern under internMu. All fields stay zero
	// for untraced jobs; every emit is a nil-track no-op then.
	run         string
	tr          *trace.Tracer
	tk          *trace.Track
	phExpand    int64
	phSerialize int64
	internMu    sync.Mutex
	tkIntern    *trace.Track
}

// internRecv/internSend record inbound-intern wire halves under the
// mutex, since sibling peers post interns concurrently.
func (j *peerJob) internRecv(pid, bytes int64) {
	if j.tkIntern == nil {
		return
	}
	j.internMu.Lock()
	j.tkIntern.FrameRecv(pid, bytes)
	j.internMu.Unlock()
}

func (j *peerJob) internSend(pid, bytes int64) {
	if j.tkIntern == nil {
		return
	}
	j.internMu.Lock()
	j.tkIntern.FrameSend(pid, bytes)
	j.internMu.Unlock()
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
	cb := cfg.CacheBytes
	if cb <= 0 {
		cb = defaultCacheBytes
	}
	nd.cache = newSharedCache(nd.peers, cb)
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
		"cluster.intern_batches_in",
		"cluster.intern_bytes_in",
		"cluster.remote_cache_hits",
		"cluster.cache_store_hits",
		"cluster.cache_store_misses",
		"cluster.cache_store_puts",
		"cluster.cache_store_evictions",
		"cluster.singleflight_waits",
		"cluster.trace_collects",
	} {
		nd.reg.Counter(name)
	}
	nd.reg.Gauge("cluster.cache_store_bytes").Set(0)
	nd.reg.Gauge("cluster.jobs").Set(0)
	nd.reg.Gauge("cluster.trace_dumps").Set(0)
	return nd, nil
}

// NumPeers returns the cluster size.
func (nd *Node) NumPeers() int { return len(nd.peers) }

// Self returns this node's base URL.
func (nd *Node) Self() string { return nd.peers[nd.self] }

// ownerOf maps a state-key hash to the owning peer index.
func (nd *Node) ownerOf(hash uint64) int {
	return nd.owners[reach.ShardOf(hash)]
}

// Register mounts the cluster protocol endpoints on mux.
func (nd *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/v1/start", nd.handleStart)
	mux.HandleFunc("POST /cluster/v1/expand", nd.handleExpand)
	mux.HandleFunc("POST /cluster/v1/intern", nd.handleIntern)
	mux.HandleFunc("POST /cluster/v1/collect", nd.handleCollect)
	mux.HandleFunc("POST /cluster/v1/commit", nd.handleCommit)
	mux.HandleFunc("POST /cluster/v1/finish", nd.handleFinish)
	mux.HandleFunc("POST /cluster/v1/trace", nd.handleTrace)
	mux.HandleFunc("POST /cluster/v1/cache/acquire", nd.handleCacheAcquire)
	mux.HandleFunc("POST /cluster/v1/cache/put", nd.handleCachePut)
	mux.HandleFunc("POST /cluster/v1/cache/release", nd.handleCacheRelease)
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
		j.tkIntern = j.tr.NewTrack("peer-intern")
		j.phExpand = j.tr.Intern("expand")
		j.phSerialize = j.tr.Intern("serialize")
	}
	// Seed the root: every peer derives the same initial key; only the
	// owner stores it (the coordinator assigned it id 0 by construction).
	if m0 := n.InitialMarking(); nd.ownerOf(m0.Hash()) == nd.self {
		j.store.Insert(m0, m0.Hash())
		j.established = 1
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

// handleExpand fires every enabled transition of each assigned parent,
// routes fresh successors to their owning peers as intern batches, and
// reports verdict flags, examined orders, and the minimal unsafe
// firing back to the coordinator.
func (nd *Node) handleExpand(w http.ResponseWriter, r *http.Request) {
	j, jobID := nd.job(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	cut := j.cut
	j.mu.Unlock()
	if cut {
		httpError(w, http.StatusConflict, "cluster: expand after the job's state cap")
		return
	}
	n := j.net
	cr := &countingReader{r: r.Body}
	entries, err := decodeBatch(cr, frameExpand, n.Words())
	if err != nil {
		httpError(w, http.StatusBadRequest, "cluster: expand body: %v", err)
		return
	}
	nd.reg.Counter("cluster.expand_batches_in").Inc()
	nd.reg.Counter("cluster.expand_bytes_in").Add(cr.n)
	pid := seqHeader(r)
	lvl := trace.PairLevel(pid)
	j.tk.FrameRecv(pid, cr.n)
	j.tk.Emit(trace.KindPhaseBegin, j.phExpand, lvl)

	nt := petri.Trans(n.NumTrans())
	re := &expandReply{flags: make([]byte, entries.len())}
	outbound := make([]batch, len(nd.peers))
	next := n.EmptyMarking()
	for i, pos := range entries.vals {
		m := entries.marking(i)
		enabled := 0
		for t := petri.Trans(0); t < nt; t++ {
			if !n.Enabled(m, t) {
				continue
			}
			enabled++
			order := reach.OrderKey(int(pos), t)
			if !n.FireInto(next, m, t) {
				if !re.hasVio || order < re.vioOrder {
					re.hasVio = true
					re.vioOrder = order
				}
				continue
			}
			re.orders = append(re.orders, order)
			hash := next.Hash()
			if owner := nd.ownerOf(hash); owner == nd.self {
				j.internLocal(next, hash, order)
			} else {
				outbound[owner].add(next, order)
			}
		}
		if enabled == 0 {
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
	j.tk.Expanded(int64(entries.len()), lvl)

	// Route fresh successors to their owners before acking, so by the
	// time the coordinator sees this reply every discovery from this
	// batch is pending somewhere.
	for owner := range outbound {
		if outbound[owner].len() == 0 {
			continue
		}
		if _, err := nd.sendBatch(r.Context(), j.tk, j.phSerialize, lvl, trace.RPCIntern, owner, "/cluster/v1/intern", jobID, frameIntern, &outbound[owner]); err != nil {
			httpError(w, http.StatusBadGateway, "cluster: intern to %s: %v", nd.peers[owner], err)
			return
		}
	}
	// Every reply is stamped before it is written: once the bytes are out
	// the coordinator may stamp its receive and send the next RPC, whose
	// handler writes this same track.
	payload := re.payload()
	j.tk.FrameSend(pid, frameHeaderBytes+int64(len(payload)))
	_ = codec.WriteFrame(w, frameExpandRe, payload) // an error means the client is gone
}

// seqHeader reads the wire-edge pair id the coordinator stamped on the
// RPC (0 when absent or malformed — every emit keyed by it no-ops on
// untraced jobs anyway).
func seqHeader(r *http.Request) int64 {
	v, _ := strconv.ParseInt(r.Header.Get("X-Cluster-Seq"), 10, 64)
	return v
}

// internLocal merges one discovered successor into the owned pending
// set, min-combining order keys like the in-process shards do.
func (j *peerJob) internLocal(m petri.Marking, hash, order uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.store.Lookup(m, hash)
	if id < 0 {
		j.store.Insert(m, hash)
		j.pend = append(j.pend, order)
	} else if p := id - j.established; p >= 0 && order < j.pend[p] {
		j.pend[p] = order
	}
}

func (nd *Node) handleIntern(w http.ResponseWriter, r *http.Request) {
	j, _ := nd.job(w, r)
	if j == nil {
		return
	}
	cr := &countingReader{r: r.Body}
	entries, err := decodeBatch(cr, frameIntern, j.net.Words())
	if err != nil {
		httpError(w, http.StatusBadRequest, "cluster: intern body: %v", err)
		return
	}
	nd.reg.Counter("cluster.intern_batches_in").Inc()
	nd.reg.Counter("cluster.intern_bytes_in").Add(cr.n)
	pid := seqHeader(r)
	j.internRecv(pid, cr.n)
	for i, order := range entries.vals {
		m := entries.marking(i)
		j.internLocal(m, m.Hash(), order)
	}
	j.internSend(pid, frameHeaderBytes)
	_ = codec.WriteFrame(w, frameAck, nil)
}

// handleCollect returns the owned pending discoveries of the current
// level, sorted by order key so the coordinator's global merge is a
// cheap k-way concatenation plus one sort.
func (nd *Node) handleCollect(w http.ResponseWriter, r *http.Request) {
	j, _ := nd.job(w, r)
	if j == nil {
		return
	}
	pid := seqHeader(r)
	j.tk.FrameRecv(pid, 0)
	j.mu.Lock()
	byOrder := make([]int, len(j.pend))
	for p := range byOrder {
		byOrder[p] = p
	}
	sort.Slice(byOrder, func(a, b int) bool { return j.pend[byOrder[a]] < j.pend[byOrder[b]] })
	var out batch
	for _, p := range byOrder {
		out.add(j.store.At(j.established+p), j.pend[p])
	}
	j.mu.Unlock()
	if j.tk == nil {
		_ = encodeBatch(w, frameCollect, &out)
		return
	}
	// The stamp needs the reply's size, so a traced job encodes it whole
	// first; an untraced one streams it frame by frame.
	buf := out.body(frameCollect)
	j.tk.FrameSend(pid, int64(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

// handleCommit ends the level on this peer. The peer never reads a state
// id, so the coordinator's assignments are only checked: each must name a
// marking pending here. Every stored marking counts as established from
// here on — including discoveries the coordinator left unassigned, which
// its MaxStates cap cut. Those must be rediscoverable never; the run ends
// at the cap, and j.cut makes this peer refuse to expand past it.
func (nd *Node) handleCommit(w http.ResponseWriter, r *http.Request) {
	j, _ := nd.job(w, r)
	if j == nil {
		return
	}
	cr := &countingReader{r: r.Body}
	entries, err := decodeBatch(cr, frameCommit, j.net.Words())
	if err != nil {
		httpError(w, http.StatusBadRequest, "cluster: commit body: %v", err)
		return
	}
	pid := seqHeader(r)
	j.tk.FrameRecv(pid, cr.n)
	j.mu.Lock()
	for i := range entries.vals {
		if m := entries.marking(i); j.store.Lookup(m, m.Hash()) < j.established {
			j.mu.Unlock()
			httpError(w, http.StatusBadRequest, "cluster: commit names a marking not pending here")
			return
		}
	}
	j.cut = j.cut || entries.len() < len(j.pend)
	j.established = j.store.Len()
	j.pend = j.pend[:0]
	j.mu.Unlock()
	j.tk.FrameSend(pid, frameHeaderBytes)
	_ = codec.WriteFrame(w, frameAck, nil)
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

// postJSON runs one JSON-bodied RPC, discarding the response body.
func (nd *Node) postJSON(ctx context.Context, peer int, path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, cancel, err := nd.post(ctx, peer, path, "", 0, bytes.NewBuffer(b), "application/json")
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// sendBatch posts a batch (an intern or a commit) to a peer and waits
// for the ack, stamping the serialize span and the wire edge on tk. It
// returns the request body's size.
func (nd *Node) sendBatch(ctx context.Context, tk *trace.Track, phSerialize, lvl int64, rpc, peer int, path, jobID string, typ byte, out *batch) (int64, error) {
	pid := trace.PairID(lvl, rpc, nd.self, peer)
	tk.Emit(trace.KindPhaseBegin, phSerialize, lvl)
	buf := out.body(typ)
	tk.Emit(trace.KindPhaseEnd, phSerialize, lvl)
	sent := int64(buf.Len())
	tk.FrameSend(pid, sent)
	resp, cancel, err := nd.post(ctx, peer, path, jobID, pid, buf, "application/octet-stream")
	if err != nil {
		return sent, err
	}
	defer cancel()
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	typ, _, err = codec.ReadFrame(cr, MaxFrame)
	if err != nil {
		return sent, err
	}
	if typ != frameAck {
		return sent, errUnexpectedFrame(typ, frameAck)
	}
	tk.FrameRecv(pid, cr.n)
	return sent, nil
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
