package cluster

// Shared result-cache tier. Each verify.RunKey is owned by exactly one
// member, picked on a consistent-hash ring (64 virtual nodes per
// member, FNV-1a), so every node routes a given key to the same owner
// without coordination. The owner keeps the serialized Response bytes
// in a byte-budgeted LRU and runs single-flight suppression: the first
// acquire for a missing key gets "compute" plus an inflight lease,
// concurrent acquires for the same key block until the put (then get
// the bytes) or the release (then compute themselves).

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

const ringVnodes = 64

type ringEntry struct {
	hash uint64
	peer int
}

// sharedCache is the owner-side store plus the routing ring. The ring
// is immutable after construction (static membership); the store and
// inflight map are guarded by mu.
type sharedCache struct {
	ring []ringEntry

	mu       sync.Mutex
	budget   int64
	bytes    int64
	order    *list.List // front = most recent; values are *cacheEnt
	entries  map[string]*list.Element
	inflight map[string]*flight
	evicts   int64
}

type cacheEnt struct {
	key  string
	data []byte
}

// flight is one in-progress computation of a key. done is closed by
// put (ok=true, data set) or release (ok=false).
type flight struct {
	done chan struct{}
	data []byte
	ok   bool
}

// ringHash is FNV-1a with a 64-bit avalanche finalizer. Raw FNV of
// strings that differ only in trailing bytes (a peer's vnode labels, or
// sequential run keys) lands in tight arithmetic clusters — the
// finalizer spreads them over the whole ring.
func ringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func newSharedCache(peers []string, budget int64) *sharedCache {
	c := &sharedCache{
		budget:   budget,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
	var vb [4]byte
	for i, p := range peers {
		for v := 0; v < ringVnodes; v++ {
			vb[0] = byte(v)
			vb[1] = byte(v >> 8)
			c.ring = append(c.ring, ringEntry{hash: ringHash(p + "#" + string(vb[:2])), peer: i})
		}
	}
	sort.Slice(c.ring, func(a, b int) bool {
		if c.ring[a].hash != c.ring[b].hash {
			return c.ring[a].hash < c.ring[b].hash
		}
		return c.ring[a].peer < c.ring[b].peer
	})
	return c
}

// owner returns the peer index owning a run key: the first ring entry
// clockwise from the key's hash.
func (c *sharedCache) owner(runKey string) int {
	h := ringHash(runKey)
	i := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	if i == len(c.ring) {
		i = 0
	}
	return c.ring[i].peer
}

// get returns the cached bytes and recency-bumps the entry.
func (c *sharedCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEnt).data, true
}

// put stores the bytes and evicts LRU entries over budget. An entry
// larger than the whole budget is not admitted.
func (c *sharedCache) put(key string, data []byte) {
	sz := int64(len(key) + len(data))
	if sz > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEnt)
		c.bytes += int64(len(data)) - int64(len(ent.data))
		ent.data = data
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEnt{key: key, data: data})
		c.bytes += sz
	}
	for c.bytes > c.budget {
		el := c.order.Back()
		ent := el.Value.(*cacheEnt)
		c.order.Remove(el)
		delete(c.entries, ent.key)
		c.bytes -= int64(len(ent.key) + len(ent.data))
		c.evicts++
	}
}

// Owner-side acquire: returns (data, true) on a store hit; otherwise
// registers an inflight lease and returns (nil, false) — the caller
// computes. Concurrent acquires block on the existing flight up to
// wait, then either return the put bytes or loop to claim the lease
// themselves.
func (c *sharedCache) acquire(ctx context.Context, key string, wait time.Duration, waits *int64) ([]byte, bool) {
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			data := el.Value.(*cacheEnt).data
			c.mu.Unlock()
			return data, true
		}
		fl := c.inflight[key]
		if fl == nil {
			c.inflight[key] = &flight{done: make(chan struct{})}
			c.mu.Unlock()
			return nil, false
		}
		c.mu.Unlock()
		*waits++
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, false
		}
		t := time.NewTimer(remain)
		select {
		case <-fl.done:
			t.Stop()
			if fl.ok {
				return fl.data, true
			}
			// Lease released without a result; loop to claim it.
		case <-t.C:
			return nil, false
		case <-ctx.Done():
			t.Stop()
			return nil, false
		}
	}
}

// resolve completes a flight: with data on put, without on release.
func (c *sharedCache) resolve(key string, data []byte, ok bool) {
	c.mu.Lock()
	fl := c.inflight[key]
	delete(c.inflight, key)
	c.mu.Unlock()
	if ok {
		c.put(key, data)
	}
	if fl != nil {
		fl.data = data
		fl.ok = ok
		close(fl.done)
	}
}

func (c *sharedCache) stats() (bytes, evicts int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.evicts, len(c.entries)
}

// --- HTTP endpoints (owner side) ---

type cacheAcquireReq struct {
	Run    string `json:"run"`
	WaitMS int    `json:"wait_ms"`
}

type cacheAcquireResp struct {
	Status   string          `json:"status"` // "hit" | "compute"
	Response json.RawMessage `json:"response,omitempty"`
}

type cachePutReq struct {
	Run      string          `json:"run"`
	Response json.RawMessage `json:"response,omitempty"`
}

func (nd *Node) handleCacheAcquire(w http.ResponseWriter, r *http.Request) {
	var req cacheAcquireReq
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Run == "" {
		httpError(w, http.StatusBadRequest, "cluster: bad cache acquire body")
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	var waits int64
	data, hit := nd.cache.acquire(r.Context(), req.Run, wait, &waits)
	nd.reg.Counter("cluster.singleflight_waits").Add(waits)
	resp := cacheAcquireResp{Status: "compute"}
	if hit {
		nd.reg.Counter("cluster.cache_store_hits").Inc()
		resp.Status = "hit"
		resp.Response = data
	} else {
		nd.reg.Counter("cluster.cache_store_misses").Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func (nd *Node) handleCachePut(w http.ResponseWriter, r *http.Request) {
	var req cachePutReq
	if err := json.NewDecoder(io.LimitReader(r.Body, MaxFrame)).Decode(&req); err != nil || req.Run == "" || len(req.Response) == 0 {
		httpError(w, http.StatusBadRequest, "cluster: bad cache put body")
		return
	}
	nd.cache.resolve(req.Run, req.Response, true)
	nd.reg.Counter("cluster.cache_store_puts").Inc()
	nd.publishCacheStats()
	w.WriteHeader(http.StatusOK)
}

func (nd *Node) handleCacheRelease(w http.ResponseWriter, r *http.Request) {
	var req cachePutReq
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Run == "" {
		httpError(w, http.StatusBadRequest, "cluster: bad cache release body")
		return
	}
	nd.cache.resolve(req.Run, nil, false)
	w.WriteHeader(http.StatusOK)
}

func (nd *Node) publishCacheStats() {
	b, ev, _ := nd.cache.stats()
	nd.reg.Gauge("cluster.cache_store_bytes").Set(b)
	// Counter semantics: export the delta since the last publish.
	c := nd.reg.Counter("cluster.cache_store_evictions")
	if d := ev - c.Value(); d > 0 {
		c.Add(d)
	}
}

// --- client side ---

// AcquireResult looks a run key up in the shared tier, routed to its
// ring owner (possibly this node, still via HTTP — uniform topology).
// On a hit it returns the serialized Response bytes. On "compute" the
// caller holds the owner's single-flight lease and MUST later call
// PutResult or ReleaseResult. A transport error degrades to
// (nil, false, err): the caller computes locally without a lease.
func (nd *Node) AcquireResult(ctx context.Context, runKey string, wait time.Duration) ([]byte, bool, error) {
	owner := nd.cache.owner(runKey)
	body, _ := json.Marshal(cacheAcquireReq{Run: runKey, WaitMS: int(wait / time.Millisecond)})
	resp, cancel, err := nd.post(ctx, owner, "/cluster/v1/cache/acquire", "", 0, bytes.NewBuffer(body), "application/json")
	if err != nil {
		return nil, false, err
	}
	defer cancel()
	defer resp.Body.Close()
	var ar cacheAcquireResp
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxFrame)).Decode(&ar); err != nil {
		return nil, false, err
	}
	if ar.Status == "hit" {
		nd.reg.Counter("cluster.remote_cache_hits").Inc()
		return ar.Response, true, nil
	}
	return nil, false, nil
}

// PutResult publishes a computed result to the owning node,
// best-effort: a failure only loses a cache fill.
func (nd *Node) PutResult(runKey string, response []byte) error {
	owner := nd.cache.owner(runKey)
	body, err := json.Marshal(cachePutReq{Run: runKey, Response: response})
	if err != nil {
		return err
	}
	return nd.postBody(owner, "/cluster/v1/cache/put", body)
}

// ReleaseResult drops a compute lease without publishing a result, so
// blocked acquirers wake and compute themselves.
func (nd *Node) ReleaseResult(runKey string) error {
	owner := nd.cache.owner(runKey)
	body, _ := json.Marshal(cachePutReq{Run: runKey})
	return nd.postBody(owner, "/cluster/v1/cache/release", body)
}

func (nd *Node) postBody(owner int, path string, body []byte) error {
	resp, cancel, err := nd.post(context.Background(), owner, path, "", 0, bytes.NewBuffer(body), "application/json")
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
