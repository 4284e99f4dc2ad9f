package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/randnet"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/verify"
)

// The two serve workloads drive gpod the way a tool or CI job does: an
// in-process server.New(...).Handler() on a real loopback listener,
// requests through internal/server/client, closed loop (each client
// sends its next request when the previous reply arrived) with one
// client goroutine and one connection per CPU.

const (
	classHit       = "hit"
	classColdSmall = "cold-small"
	classColdLarge = "cold-large"
)

// gpodHost is one server on a loopback listener.
type gpodHost struct {
	svc  *server.Server
	hs   *http.Server
	base string
	mw   *middleware
	done chan struct{}
}

// bootGpod serves server.New(cfg).Handler() on ln; in a traced run (rec
// non-nil) the timing middleware goes around it.
func bootGpod(cfg server.Config, ln net.Listener, rec *recorder) *gpodHost {
	h := &gpodHost{svc: server.New(cfg), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h.hs = &http.Server{Handler: h.svc.Handler()}
	if rec != nil {
		h.mw = newMiddleware(h.svc.Handler(), rec)
		h.hs.Handler = h.mw
	}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return h
}

// stop shuts the listener and the worker pool down and waits for both.
func (h *gpodHost) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		_ = h.hs.Close()
	}
	<-h.done
	h.svc.Close()
}

// newClients returns one client per lane, each with its own transport so
// a lane is exactly one connection.
func newClients(base func(lane int) string, lanes int) ([]*client.Client, []*http.Transport) {
	cls := make([]*client.Client, lanes)
	trs := make([]*http.Transport, lanes)
	for i := range cls {
		trs[i] = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		cls[i] = client.New(base(i), &http.Client{Transport: opTransport{trs[i]}})
	}
	return cls, trs
}

// netEntry is one distinct verification the serve workloads request: a
// net, an engine, the request that asks for it and the answer expected.
type netEntry struct {
	net    *petri.Net
	engine string
	head   string // "net <name>\n", replaced to make a cold copy
	body   string // the .pn text after the first line
	ref    reference
}

// request builds the wire request for the entry; a non-empty rename
// gives the net a fresh name, hence a fresh RunKey (a guaranteed miss).
func (e *netEntry) request(rename string) *server.Request {
	head := e.head
	if rename != "" {
		head = "net " + rename + "\n"
	}
	return &server.Request{Net: head + e.body, Engine: e.engine}
}

func newNetEntry(n *petri.Net, engine string, ref reference) (*netEntry, error) {
	var buf bytes.Buffer
	if err := pnio.Write(&buf, n); err != nil {
		return nil, err
	}
	head, body, ok := strings.Cut(buf.String(), "\n")
	if !ok {
		return nil, fmt.Errorf("pnio.Write(%s): no header line", n.Name())
	}
	return &netEntry{net: n, engine: engine, head: head + "\n", body: body, ref: ref}, nil
}

// hotSet is the working set of 64 distinct inline nets: 21 exhaustive
// requests on nets the oracle enumerates, 43 gpo requests up to
// nsdp(12), asat(16), over(6) and rw(24).
func hotSet(e *env) ([]*netEntry, error) {
	type spec struct {
		family string
		sizes  []int
		engine string
	}
	span := func(lo, hi int) []int {
		var out []int
		for i := lo; i <= hi; i++ {
			out = append(out, i)
		}
		return out
	}
	specs := []spec{
		{"nsdp", span(2, 6), engExhaustive}, {"asat", []int{2, 4}, engExhaustive},
		{"over", span(2, 4), engExhaustive}, {"rw", span(2, 12), engExhaustive},
		{"nsdp", span(2, 12), engGPO}, {"asat", []int{2, 4, 8, 16}, engGPO},
		{"over", span(2, 6), engGPO}, {"rw", span(2, 24), engGPO},
	}
	if e.short {
		specs = []spec{{"nsdp", span(2, 4), engExhaustive}, {"rw", span(2, 5), engGPO}, {"asat", []int{2, 4}, engGPO}}
	}
	oracles := map[string]*oracleAnswer{}
	var out []*netEntry
	for _, s := range specs {
		if err := checkFamilyVerdicts(e.exp, []string{s.family}); err != nil {
			return nil, err
		}
		for _, size := range s.sizes {
			c := bc(s.family, size, s.engine)
			n, err := models.ByName(s.family, size)
			if err != nil {
				return nil, err
			}
			c.net = n
			c.oracle = s.engine == engExhaustive
			ref, err := referenceFor(e.exp, &c, oracles)
			if err != nil {
				return nil, err
			}
			ent, err := newNetEntry(n, s.engine, ref)
			if err != nil {
				return nil, err
			}
			out = append(out, ent)
		}
	}
	return out, nil
}

// Cold pools of serve-mixed. The structures are fixed (randnet seeds
// 1..n), so every --seed does the same total work and the oracle can
// answer each structure once per set-up; a request makes its copy cold by
// renaming the net. Engine gpo is deliberately absent: it explodes on
// randnet nets (README.md, "gpo on randnet").
var (
	coldSmallCfg = randnet.Config{Machines: 4, PlacesPer: 4, LocalTrans: 2, SyncTrans: 4}
	coldBigCfg   = randnet.Config{Machines: 6, PlacesPer: 5, LocalTrans: 2, SyncTrans: 6}
)

func coldPool(cfg randnet.Config, count int) ([]*netEntry, error) {
	var out []*netEntry
	for i := 1; i <= count; i++ {
		cfg.Seed = int64(i)
		n := randnet.Generate(cfg)
		ans, err := oracleExplore(n, oracleLimit)
		if err != nil {
			return nil, err
		}
		engine, ref := engExhaustive, reference{deadlock: ans.deadlock, oracle: ans, states: ans.states, known: true}
		if i%2 == 0 {
			engine, ref = engPO, reference{deadlock: ans.deadlock, oracle: ans, maxState: ans.states}
		}
		ent, err := newNetEntry(n, engine, ref)
		if err != nil {
			return nil, err
		}
		out = append(out, ent)
	}
	return out, nil
}

// serveOp is one request of a round, fully prepared before the clock
// starts.
type serveOp struct {
	class string
	entry *netEntry
	req   *server.Request
}

type serveInst struct {
	mixed bool
	host  *gpodHost
	cls   []*client.Client
	trs   []*http.Transport
	hot   []*netEntry
	small []*netEntry
	big   []*netEntry
	large *netEntry
	// hitsPerKey, and the cold counts, fix the round's operation list.
	hitsPerKey, nSmall, nBig, nLarge int
	coldSeq                          int // makes every cold name unique within the process

	mu       sync.Mutex
	clientUS map[int]float64 // client-observed time of traced hits by op, us
}

func (s *serveInst) close() {
	for _, tr := range s.trs {
		tr.CloseIdleConnections()
	}
	s.host.stop()
}

func setupServe(e *env, mixed bool) (instance, error) {
	s := &serveInst{mixed: mixed, clientUS: map[int]float64{}}
	var err error
	if s.hot, err = hotSet(e); err != nil {
		return nil, err
	}
	cfg := server.Config{}
	if mixed {
		nSmall, nBig := 16, 8
		s.hitsPerKey, s.nSmall, s.nBig, s.nLarge = 5, 34, 34, 12
		if e.short {
			nSmall, nBig = 2, 1
			s.hitsPerKey, s.nSmall, s.nBig, s.nLarge = 2, 2, 1, 1
		}
		if s.small, err = coldPool(coldSmallCfg, nSmall); err != nil {
			return nil, err
		}
		if s.big, err = coldPool(coldBigCfg, nBig); err != nil {
			return nil, err
		}
		large := bc("nsdp", 8, engExhaustive)
		if e.short {
			large = bc("nsdp", 4, engExhaustive)
		}
		if large.net, err = models.ByName(large.family, large.size); err != nil {
			return nil, err
		}
		ref, err := referenceFor(e.exp, &large, nil)
		if err != nil {
			return nil, err
		}
		if s.large, err = newNetEntry(large.net, engExhaustive, ref); err != nil {
			return nil, err
		}
		// A small budget, so that cold puts evict (the 16 MiB default would
		// hold ~40 000 results and never fill in a run). The hot set takes
		// 22 KB; the other 74 KB hold the cold results of about 2.6 rounds,
		// and no hot key can go unrequested for more than two rounds, so a
		// hot key is never the least recently used entry.
		cfg.CacheBytes = 96 << 10
	} else {
		s.hitsPerKey = 32
		if e.short {
			s.hitsPerKey = 2
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.host = bootGpod(cfg, ln, e.rec)
	s.cls, s.trs = newClients(func(int) string { return s.host.base }, e.nproc)

	// Pre-populate: every hot key is requested once, so the measured
	// phase only ever reads it back.
	ctx := context.Background()
	for _, h := range s.hot {
		resp, err := s.cls[0].Verify(ctx, h.request(""))
		if err == nil {
			err = checkResponse(h, resp)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("pre-populating %s/%s: %w", h.net.Name(), h.engine, err)
		}
	}
	return s, nil
}

// checkResponse compares a service reply with the entry's reference.
func checkResponse(e *netEntry, resp *server.Response) error {
	w, err := witnessByName(e.net, resp.Witness)
	if err != nil {
		return err
	}
	if resp.Deadlock && w == nil {
		// On the wire a witness with no marked place is omitted: the
		// empty marking (randnet nets can lose every token), which the
		// check below must still find dead and reachable.
		w = make([]bool, e.net.NumPlaces())
	}
	return e.ref.check(e.net, outcome{
		deadlock: resp.Deadlock, complete: resp.Complete, aborted: resp.Status != server.StatusOK,
		states: resp.States, witness: w,
	})
}

// prepare builds the round's request list: every hot key hitsPerKey
// times and, on serve-mixed, the cold requests under fresh names, all in
// an order drawn from rng.
func (s *serveInst) prepare(rng *rand.Rand) []serveOp {
	var ops []serveOp
	for _, h := range s.hot {
		req := h.request("")
		for i := 0; i < s.hitsPerKey; i++ {
			ops = append(ops, serveOp{classHit, h, req})
		}
	}
	cold := func(class string, pool []*netEntry, count int) {
		for i := 0; i < count; i++ {
			e := pool[i%len(pool)]
			s.coldSeq++
			ops = append(ops, serveOp{class, e, e.request(fmt.Sprintf("cold%d", s.coldSeq))})
		}
	}
	if s.mixed {
		// cold-small is one class with two sizes: ~270 states and ~16 000.
		cold(classColdSmall, s.small, s.nSmall)
		cold(classColdSmall, s.big, s.nBig)
		cold(classColdLarge, []*netEntry{s.large}, s.nLarge)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (s *serveInst) round(rng *rand.Rand, rec *recorder, opBase int) ([]sample, time.Duration) {
	ops := s.prepare(rng)
	samples := make([]sample, len(ops))
	lanes := len(s.cls)
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(ops); i += lanes {
				samples[i] = s.do(&ops[i], rec, opBase+i, lane)
			}
		}(lane)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// do sends one request and checks the reply.
func (s *serveInst) do(op *serveOp, rec *recorder, id, lane int) sample {
	sp := rec.begin("server/client", "client.Verify", id, lane, spanRef{})
	ctx := withTrace(context.Background(), id, lane, sp)
	t0 := time.Now()
	resp, err := s.cls[lane].Verify(ctx, op.req)
	d := time.Since(t0)
	sp.end()
	if rec != nil && op.class == classHit {
		s.mu.Lock()
		s.clientUS[id] = float64(d) / 1e3
		s.mu.Unlock()
	}
	switch {
	case err != nil:
		var api *client.APIError
		if errors.As(err, &api) {
			err = fmt.Errorf("refused or failed with HTTP %d: %s", api.StatusCode, api.Message)
		}
	case op.class == classHit && !resp.Cached:
		err = fmt.Errorf("%s/%s: a hot key was not served from the cache", op.entry.net.Name(), op.entry.engine)
	case op.class != classHit && resp.Cached:
		err = fmt.Errorf("%s: a cold request was served from the cache", op.req.Net[:strings.IndexByte(op.req.Net, '\n')])
	default:
		err = checkResponse(op.entry, resp)
	}
	return sample{class: op.class, ms: float64(d) / 1e6, err: err}
}

func (s *serveInst) layers(lc *layerCtx) {
	m := lc.m
	mw := s.host.mw
	mw.mu.Lock()
	handler := append([]float64(nil), mw.handlerUS...)
	var transport, hitHandler []float64
	s.mu.Lock()
	for op, us := range mw.byOp {
		if c, ok := s.clientUS[op]; ok {
			transport = append(transport, c-us)
			hitHandler = append(hitHandler, us)
		}
	}
	s.mu.Unlock()
	mw.mu.Unlock()
	m["server.handler_us_p50"] = percentile(handler, 50)
	m["server.handler_us_p99"] = percentile(handler, 99)
	m["client.transport_us_p50"] = percentile(transport, 50)
	reqs := float64(mw.requests.Load())
	m["server.bytes_in_per_req"] = ratio(float64(mw.bytesIn.Load()), reqs)
	m["server.bytes_out_per_req"] = ratio(float64(mw.bytesOut.Load()), reqs)

	us := func(v []float64, p float64) float64 { return percentile(v, p) * 1e3 }
	m["server.class.hit.p50_us"] = us(lc.traced[classHit], 50)
	m["server.class.hit.p99_us"] = us(lc.traced[classHit], 99)
	m["server.class.cold_small.p50_ms"] = percentile(lc.traced[classColdSmall], 50)
	m["server.class.cold_small.p90_ms"] = percentile(lc.traced[classColdSmall], 90)
	m["server.class.cold_large.p50_ms"] = percentile(lc.traced[classColdLarge], 50)

	// The pieces of a hit, each called directly over the hot set: what the
	// handler does before the cache lookup (JSON decode + pnio.Parse, then
	// verify.RunKey) and after it (JSON encode), and what the client does
	// before sending (JSON marshal).
	reqs64 := make([][]byte, len(s.hot))
	resps := make([]*server.Response, len(s.hot))
	nets := make([]*petri.Net, len(s.hot))
	for i, h := range s.hot {
		reqs64[i], _ = json.Marshal(h.request(""))
		resps[i], _ = s.cls[0].Verify(context.Background(), h.request(""))
		nets[i] = h.net
	}
	per := func(d time.Duration) float64 { return ratio(float64(d)/1e3, float64(len(s.hot))) }
	parsed := make([]*petri.Net, len(s.hot))
	m["server.decode_parse_us"] = per(timeIt(5, func() {
		for i, b := range reqs64 {
			var req server.Request
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			_ = dec.Decode(&req)
			parsed[i], _ = pnio.Parse(strings.NewReader(req.Net))
		}
	}))
	m["server.key_us"] = per(timeIt(5, func() {
		for _, n := range parsed {
			_ = verify.RunKey(n, server.CheckDeadlock, nil, verify.Options{Engine: verify.GPO})
		}
	}))
	m["server.encode_us"] = per(timeIt(5, func() {
		for _, r := range resps {
			var buf bytes.Buffer
			_ = json.NewEncoder(&buf).Encode(r)
		}
	}))
	m["client.marshal_us"] = per(timeIt(5, func() {
		for _, h := range s.hot {
			_, _ = json.Marshal(h.request(""))
		}
	}))
	// Residual: mux, cache lookup and everything else inside the handler
	// of a hit. The pieces are means over the hot set and every hot key is
	// requested equally often, so they are taken from the mean handler
	// time of the hits (the median would be of a different net size).
	m["server.residual_us"] = ratio(sum(hitHandler), float64(len(hitHandler))) - m["server.decode_parse_us"] - m["server.key_us"] - m["server.encode_us"]
	codecCalib(nets, lc)
	if !s.mixed {
		// Façade overhead: CheckDeadlock against the engine's own entry
		// point on a small hot net, many repetitions, medians.
		m["verify.facade_overhead_us"] = facadeOverheadUS(s.hot[0].net)
	}

	// The program's own registry, read through the public /metrics route.
	if snap, err := s.cls[0].Metrics(context.Background()); err == nil {
		hits, misses := float64(snap.Counters["server.cache_hits"]), float64(snap.Counters["server.cache_misses"])
		m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
		m["server.cache_evictions"] = float64(snap.Counters["server.cache_evictions"])
		m["server.cache_bytes"] = float64(snap.Gauges["server.cache_bytes"])
		m["server.shed"] = float64(snap.Counters["server.shed"])
		if s.mixed {
			q := snap.Histograms["server.queue_wait_ns"]
			m["server.queue_wait_ms_p50"] = float64(q.P50) / 1e6
			m["server.queue_wait_ms_p99"] = float64(q.P99) / 1e6
		}
	}
	// Pieces against the façade: the traced client-observed median of a hit
	// (handler + transport, by construction) over the untraced one.
	m["bench.pieces_vs_facade_ratio"] = ratio(percentile(lc.traced[classHit], 50), percentile(lc.untraced[classHit], 50))
}

var serveWorkloads = []*workload{
	{
		name:  wHot,
		why:   "gpod closed loop on 64 pre-populated inline nets, every reply cached: JSON, pnio.Parse, RunKey, cache read and loopback HTTP, no engine runs",
		limit: 50 * time.Millisecond,
		tail:  99,
		setup: func(e *env) (instance, error) { return setupServe(e, false) },
	},
	{
		name:  wMixed,
		why:   "gpod closed loop, 80% hits, 17% fresh small random nets, 3% fresh nsdp(8): cache writes and evictions, the worker queue, long runs beside short ones",
		limit: 2 * time.Second,
		tail:  99,
		setup: func(e *env) (instance, error) { return setupServe(e, true) },
	},
}
