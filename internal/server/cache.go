package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/verify"
)

// cacheKey is the content address of a verification result. The hashing
// itself lives in verify.RunKey: the same SHA-256 of the canonical
// net+options encoding also names the run in the ledger (as
// Key.RunID()) and on the /v1/runs surface, so the cache line, the
// ledger entry, the access-log line and the live run all join on one
// identity.
type cacheKey = verify.Key

// requestKey hashes the net and the options that determine the result.
// Workers is excluded: the parallel exhaustive explorer is bit-identical
// to the sequential one (DESIGN.md D6), so both serve one cache line.
// Timeouts are excluded because aborted results are never cached.
func requestKey(n *petri.Net, check string, bad []petri.Place, o verify.Options) cacheKey {
	return verify.RunKey(n, check, bad, o)
}

// bodyDigest is the SHA-256 of a request body exactly as it arrived.
// The result cache indexes entries under it (DESIGN.md D14) so that a
// repeated body is answered without being decoded. The hash must stay
// cryptographic: a body built to collide with another's digest would be
// served that other request's verdict.
type bodyDigest [sha256.Size]byte

const (
	// maxBodies caps the digests indexed per entry, so respelling one
	// request (whitespace, field order) cannot grow the index; past it
	// the oldest spelling gives way and goes back to the parsed path.
	maxBodies = 4
	// bodySize is one indexed digest's charge against the byte budget:
	// the digest in the entry's list and its slot in the index map.
	bodySize = 96
)

// cacheEntry is one cached result with its budget charge.
type cacheEntry struct {
	key  cacheKey
	resp Response
	size int64 // entrySize(resp) + bodySize per indexed body
	// bodies are the request bodies known to resolve to key, oldest
	// first; each is also a key of resultCache.byBody.
	bodies []bodyDigest
	// peer marks a result that arrived over the wire from the shared
	// tier: serving it counts as cluster.remote_cache_hits.
	peer bool
}

// entrySize estimates an entry's memory footprint against the byte
// budget: struct overhead plus the variable-length strings.
func entrySize(r *Response) int64 {
	size := int64(len(cacheKey{})) + 256 // key + struct + list/map overhead
	size += int64(len(r.Net) + len(r.Engine) + len(r.Check) + len(r.Status))
	for _, w := range r.Witness {
		size += int64(len(w)) + 16
	}
	return size
}

// resultCache is the content-addressed LRU result cache: complete,
// uncancelled verification results keyed by requestKey, evicted least-
// recently-used when the byte budget is exceeded. byBody is a second
// index of the same entries, under the digests of the request bodies
// that were resolved to them. On a cluster member the same store is
// this node's share of the shared tier (tier.go), and inflight holds
// the tier's single-flight leases.
type resultCache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	ll       *list.List // front = most recently used; values are *cacheEntry
	items    map[cacheKey]*list.Element
	byBody   map[bodyDigest]*list.Element
	inflight map[cacheKey]chan struct{} // closed when the lease is settled

	hits, bodyHits, misses, evictions *obs.Counter
	bytes, entries                    *obs.Gauge
	// remoteHits and waits are the tier's counters, nil without peers.
	remoteHits, waits *obs.Counter
}

func newResultCache(budget int64, reg *obs.Registry) *resultCache {
	return &resultCache{
		budget:    budget,
		ll:        list.New(),
		items:     make(map[cacheKey]*list.Element),
		byBody:    make(map[bodyDigest]*list.Element),
		inflight:  make(map[cacheKey]chan struct{}),
		hits:      reg.Counter("server.cache_hits"),
		bodyHits:  reg.Counter("server.cache_body_hits"),
		misses:    reg.Counter("server.cache_misses"),
		evictions: reg.Counter("server.cache_evictions"),
		bytes:     reg.Gauge("server.cache_bytes"),
		entries:   reg.Gauge("server.cache_entries"),
	}
}

// get returns a copy of the cached response for key, marking it as the
// most recently used. The copy has Cached set.
func (c *resultCache) get(key cacheKey) (*Response, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	return c.serve(el), true
}

// getByBody is get for a request body that has not been decoded. Not
// finding it says nothing about the result, only that this spelling is
// new, so it is not a miss: the caller resolves the body and asks get.
func (c *resultCache) getByBody(d bodyDigest) (*Response, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byBody[d]
	if !ok {
		return nil, false
	}
	c.bodyHits.Inc()
	return c.serve(el), true
}

// serve counts a hit on el and returns the copy to answer with.
func (c *resultCache) serve(el *list.Element) *Response {
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return c.answer(el.Value.(*cacheEntry))
}

// answer returns the copy of e a request is answered with, Cached set,
// and counts a remote hit if a peer computed e. An entry's resp and peer
// never change once stored, so they may be read without the lock.
func (c *resultCache) answer(e *cacheEntry) *Response {
	if e.peer {
		c.remoteHits.Inc()
	}
	resp := e.resp
	resp.Witness = cloneWitness(resp.Witness)
	resp.Cached = true
	return &resp
}

// indexBody records that the request body with digest d resolves to
// key, so getByBody(d) finds key's entry for as long as it is cached.
// The caller has validated the body and derived key from it; nothing
// else may be indexed, because a digest hit is served unexamined.
func (c *resultCache) indexBody(key cacheKey, d bodyDigest) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, known := c.byBody[d]; known {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.bodies) == maxBodies {
		delete(c.byBody, e.bodies[0])
		e.bodies = append(e.bodies[:0], e.bodies[1:]...)
	} else {
		e.size += bodySize
		c.used += bodySize
	}
	e.bodies = append(e.bodies, d)
	c.byBody[d] = el
	c.trim()
}

// cloneWitness deep-copies a witness slice. Both put and get copy: a
// caller mutating its Response after the fact (or a handler decorating
// a served copy) must never reach the cached entry, whose entrySize
// charge was computed from the bytes stored at admission.
func cloneWitness(w []string) []string {
	if w == nil {
		return nil
	}
	out := make([]string, len(w))
	copy(out, w)
	return out
}

// put inserts a response this node computed.
func (c *resultCache) put(key cacheKey, resp *Response) { c.store(key, resp, false) }

// store inserts a response, evicting from the cold end until the budget
// holds, and settles key's lease, so its waiters wake and find the
// entry. Responses larger than the whole budget are not cached; their
// waiters wake to compute. peer marks a response from the shared tier.
func (c *resultCache) store(key cacheKey, resp *Response, peer bool) {
	if c == nil {
		return
	}
	e := &cacheEntry{key: key, resp: *resp, size: entrySize(resp), peer: peer}
	e.resp.Witness = cloneWitness(resp.Witness)
	e.resp.Cached = false
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle(key)
	if e.size > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		// Identical request raced through two workers; keep the first
		// result (they are equal) and just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(e)
	c.used += e.size
	c.trim()
}

// Outcomes of a shared-tier acquire.
type tierOutcome int

const (
	tierCompute tierOutcome = iota // compute without a lease
	tierLease                      // compute, then put or release
	tierHit
)

// acquire is the owner's side of a shared-tier lookup. It returns the
// entry on a hit; otherwise key's single-flight lease, the caller
// computing and then putting or releasing; or tierCompute when another
// requester's lease outlasts wait (or ctx): the caller computes without
// the lease and publishes with put, which is idempotent because results
// are content-addressed. A disabled cache leases nothing.
func (c *resultCache) acquire(ctx context.Context, key cacheKey, wait time.Duration) (*cacheEntry, tierOutcome) {
	if c == nil {
		return nil, tierCompute
	}
	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			return el.Value.(*cacheEntry), tierHit
		}
		done, held := c.inflight[key]
		if !held {
			c.inflight[key] = make(chan struct{})
			c.mu.Unlock()
			return nil, tierLease
		}
		c.mu.Unlock()
		c.waits.Inc()
		select {
		case <-done: // put or released: look again
		case <-ctx.Done():
			return nil, tierCompute
		}
	}
}

// release settles key's lease without a result: its waiters wake and
// one of them takes the lease.
func (c *resultCache) release(key cacheKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.settle(key)
}

func (c *resultCache) settle(key cacheKey) {
	if done, ok := c.inflight[key]; ok {
		delete(c.inflight, key)
		close(done)
	}
}

// trim evicts from the cold end, each entry with its indexed bodies,
// until the budget holds, then publishes the occupancy gauges.
func (c *resultCache) trim() {
	for c.used > c.budget {
		cold := c.ll.Back()
		if cold == nil {
			break
		}
		ce := cold.Value.(*cacheEntry)
		c.ll.Remove(cold)
		delete(c.items, ce.key)
		for _, d := range ce.bodies {
			delete(c.byBody, d)
		}
		c.used -= ce.size
		c.evictions.Inc()
	}
	c.bytes.Set(c.used)
	c.entries.Set(int64(c.ll.Len()))
}

// stats returns the current entry count and byte usage (tests).
func (c *resultCache) stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.used
}

// indexedBodies returns the size of the body-digest index (tests).
func (c *resultCache) indexedBodies() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byBody)
}
