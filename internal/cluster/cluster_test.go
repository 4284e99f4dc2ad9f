package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/reach"
)

// startCluster brings up nPeers in-process gpod peers on loopback
// listeners: real HTTP, real wire frames, distinct Node instances —
// only the network distance is fake.
func startCluster(t testing.TB, nPeers int) ([]*Node, []*obs.Registry) {
	t.Helper()
	lns := make([]net.Listener, nPeers)
	addrs := make([]string, nPeers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*Node, nPeers)
	regs := make([]*obs.Registry, nPeers)
	for i := range nodes {
		regs[i] = obs.New()
		nd, err := New(Config{
			Self:    addrs[i],
			Peers:   append([]string(nil), addrs...),
			Metrics: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		nd.Register(mux)
		srv := &http.Server{Handler: mux}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close() })
		nodes[i] = nd
	}
	return nodes, regs
}

func sameResult(t *testing.T, name string, seq, clu *reach.Result) {
	t.Helper()
	if seq.States != clu.States {
		t.Errorf("%s: states %d != %d", name, clu.States, seq.States)
	}
	if seq.Arcs != clu.Arcs {
		t.Errorf("%s: arcs %d != %d", name, clu.Arcs, seq.Arcs)
	}
	if seq.Deadlock != clu.Deadlock || seq.BadFound != clu.BadFound || seq.Complete != clu.Complete {
		t.Errorf("%s: flags (dead=%v bad=%v complete=%v) != (dead=%v bad=%v complete=%v)",
			name, clu.Deadlock, clu.BadFound, clu.Complete, seq.Deadlock, seq.BadFound, seq.Complete)
	}
	sameMarkings(t, name+"/deadlocks", seq.Deadlocks, clu.Deadlocks)
	sameMarkings(t, name+"/bad", seq.BadStates, clu.BadStates)
}

func sameMarkings(t *testing.T, name string, want, got []petri.Marking) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d markings != %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Errorf("%s: marking %d differs", name, i)
			return
		}
	}
}

// TestClusterBitIdentical is the determinism contract of the tentpole:
// a 3-peer distributed exploration over real loopback HTTP produces
// Results bit-identical to the sequential BFS — full runs, the
// MaxStates stop point, safety predicates, and the ErrUnsafe witness.
func TestClusterBitIdentical(t *testing.T) {
	nodes, _ := startCluster(t, 3)

	nsdp8 := models.NSDP(8)
	rw12 := models.ReadersWriters(12)

	t.Run("nsdp8-full", func(t *testing.T) {
		seq, err := reach.Explore(nsdp8, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		clu, err := nodes[0].Explore(nsdp8, nil, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if seq.States != 103682 {
			t.Fatalf("nsdp(8) baseline drifted: %d states", seq.States)
		}
		sameResult(t, "nsdp8", seq, clu)
	})

	t.Run("rw12-full", func(t *testing.T) {
		seq, err := reach.Explore(rw12, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		clu, err := nodes[0].Explore(rw12, nil, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "rw12", seq, clu)
	})

	t.Run("rw12-safety", func(t *testing.T) {
		// Same bad-place set on both engines; the cluster peers check
		// the places, the sequential engine the equivalent predicate.
		bad := []petri.Place{0, 1}
		pred := func(m petri.Marking) bool { return m.Has(bad[0]) && m.Has(bad[1]) }
		seq, err := reach.Explore(rw12, reach.Options{Bad: pred})
		if err != nil {
			t.Fatal(err)
		}
		clu, err := nodes[1].Explore(rw12, bad, reach.Options{Bad: pred})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "rw12-safety", seq, clu)
	})

	t.Run("nsdp7-capped", func(t *testing.T) {
		n := models.NSDP(7)
		for _, cap := range []int{1, 500, 5000} {
			seq, seqErr := reach.Explore(n, reach.Options{MaxStates: cap})
			if !errors.Is(seqErr, reach.ErrStateLimit) {
				t.Fatalf("cap %d: sequential got %v", cap, seqErr)
			}
			clu, cluErr := nodes[2].Explore(n, nil, reach.Options{MaxStates: cap})
			if !errors.Is(cluErr, reach.ErrStateLimit) {
				t.Fatalf("cap %d: cluster got %v", cap, cluErr)
			}
			if clu.States != cap {
				t.Errorf("cap %d: cluster stopped at %d states", cap, clu.States)
			}
			sameResult(t, "nsdp7-capped", seq, clu)
		}
	})

	t.Run("unsafe-witness", func(t *testing.T) {
		b := petri.NewBuilder("unsafe")
		p := b.Place("p")
		q := b.Place("q")
		r := b.Place("r")
		b.TransArcs("t1", []petri.Place{p}, []petri.Place{r})
		b.TransArcs("t2", []petri.Place{q}, []petri.Place{r})
		b.Mark(p, q)
		n, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, seqErr := reach.Explore(n, reach.Options{})
		if !errors.Is(seqErr, reach.ErrUnsafe) {
			t.Fatalf("sequential: got %v, want ErrUnsafe", seqErr)
		}
		_, cluErr := nodes[0].Explore(n, nil, reach.Options{})
		if !errors.Is(cluErr, reach.ErrUnsafe) {
			t.Fatalf("cluster: got %v, want ErrUnsafe", cluErr)
		}
		if seqErr.Error() != cluErr.Error() {
			t.Errorf("error message differs:\n  seq: %s\n  clu: %s", seqErr, cluErr)
		}
	})
}

// TestClusterMetrics checks the coordinator exports the per-run
// cluster.* metrics and the same reach.* counters as the in-process
// engines, so reach.states deltas work for cluster runs too.
func TestClusterMetrics(t *testing.T) {
	nodes, regs := startCluster(t, 3)
	n := models.NSDP(5)
	reg := obs.New()
	clu, err := nodes[0].Explore(n, nil, reach.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["reach.states"]; got != int64(clu.States) {
		t.Errorf("reach.states = %d, want %d", got, clu.States)
	}
	if got := snap.Counters["reach.arcs"]; got != int64(clu.Arcs) {
		t.Errorf("reach.arcs = %d, want %d", got, clu.Arcs)
	}
	if snap.Counters["cluster.levels"] == 0 {
		t.Error("cluster.levels not recorded")
	}
	if snap.Counters["cluster.frontier_bytes_out"] == 0 || snap.Counters["cluster.frontier_bytes_in"] == 0 {
		t.Error("frontier byte counters not recorded")
	}
	if snap.Gauges["cluster.peers"] != 3 {
		t.Errorf("cluster.peers = %d, want 3", snap.Gauges["cluster.peers"])
	}
	// Peer-side node counters saw the traffic.
	var batches int64
	for _, r := range regs {
		batches += r.Snapshot().Counters["cluster.expand_batches_in"]
	}
	if batches == 0 {
		t.Error("no expand batches recorded on any peer")
	}
}

// TestAssignLevelStealing pins the work-stealing rebalance: a level
// whose parents all hash into one peer's shard range is spread to the
// starving peers, every position exactly once, and the steal count is
// reported.
func TestAssignLevelStealing(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	nd := nodes[0]

	// All parents in peer 0's range (shards 0..85), several buckets so
	// donors can give without dropping below the recipients.
	const nStates = 240
	level := make([]int, nStates)
	stateShard := make([]uint32, nStates)
	for i := range level {
		level[i] = i
		stateShard[i] = uint32(i % 40) // 40 distinct shards, all owned by peer 0
	}
	assign, steals := nd.assignLevel(level, stateShard, nil, 0)
	if steals == 0 {
		t.Fatal("expected steals for a fully skewed level")
	}
	seen := make(map[int]bool)
	for peer, positions := range assign {
		for _, pos := range positions {
			if seen[pos] {
				t.Fatalf("position %d assigned twice", pos)
			}
			seen[pos] = true
		}
		if peer != 0 && len(positions) == 0 {
			t.Errorf("peer %d still starving after rebalance", peer)
		}
	}
	if len(seen) != nStates {
		t.Fatalf("assignment covers %d of %d positions", len(seen), nStates)
	}

	// A balanced level needs no stealing.
	for i := range level {
		stateShard[i] = uint32(i % reach.NumShards)
	}
	_, steals = nd.assignLevel(level, stateShard, nil, 0)
	if steals != 0 {
		t.Errorf("balanced level stole %d buckets", steals)
	}
}

// TestSharedCacheTier exercises the consistent-hash result tier over
// real HTTP: a put on one node is a hit from every node, single-flight
// blocks a concurrent acquirer until the put lands, and a release lets
// waiters claim the compute lease themselves.
func TestSharedCacheTier(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	ctx := context.Background()
	key := "run-abc123"
	payload := []byte(`{"deadlock":true,"states":42}`)

	// First acquire: miss, lease held.
	data, hit, err := nodes[0].AcquireResult(ctx, key, 0)
	if err != nil || hit {
		t.Fatalf("first acquire: hit=%v err=%v data=%q", hit, err, data)
	}

	// A concurrent acquirer from another node blocks, then gets the put.
	type res struct {
		data []byte
		hit  bool
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		d, h, e := nodes[1].AcquireResult(ctx, key, 5*time.Second)
		ch <- res{d, h, e}
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter park on the flight
	if err := nodes[0].PutResult(key, payload); err != nil {
		t.Fatalf("put: %v", err)
	}
	r := <-ch
	if r.err != nil || !r.hit || string(r.data) != string(payload) {
		t.Fatalf("waiter: hit=%v err=%v data=%q", r.hit, r.err, r.data)
	}

	// Every node now sees the hit, wherever the owner lives.
	for i, nd := range nodes {
		d, h, err := nd.AcquireResult(ctx, key, 0)
		if err != nil || !h || string(d) != string(payload) {
			t.Fatalf("node %d: hit=%v err=%v data=%q", i, h, err, d)
		}
	}

	// Release without a result wakes waiters into computing themselves.
	key2 := "run-def456"
	if _, hit, _ := nodes[0].AcquireResult(ctx, key2, 0); hit {
		t.Fatal("acquire of unknown key hit")
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		nodes[0].ReleaseResult(key2)
	}()
	d, h, err := nodes[2].AcquireResult(ctx, key2, 5*time.Second)
	if err != nil || h || d != nil {
		t.Fatalf("post-release acquire: hit=%v err=%v", h, err)
	}
}

// TestRingDistribution pins that the consistent-hash ring is identical
// on every node and spreads keys across all members.
func TestRingDistribution(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	counts := make([]int, 3)
	for i := 0; i < 1000; i++ {
		key := "run-" + strconv.Itoa(i)
		owner := nodes[0].cache.owner(key)
		for _, nd := range nodes[1:] {
			if got := nd.cache.owner(key); got != owner {
				t.Fatalf("ring disagrees for %q: %d vs %d", key, got, owner)
			}
		}
		counts[owner]++
	}
	for p, c := range counts {
		if c == 0 {
			t.Errorf("peer %d owns no keys of 1000", p)
		}
	}
}

// TestSharedCacheEviction pins the byte-budget LRU of the owner store.
func TestSharedCacheEviction(t *testing.T) {
	c := newSharedCache([]string{"a"}, 100)
	big := make([]byte, 40)
	c.put("k1", big)
	c.put("k2", big)
	if _, ok := c.get("k1"); !ok {
		t.Fatal("k1 evicted below budget")
	}
	c.put("k3", big) // 3*(2+40) > 100: least-recent (k2) goes
	if _, ok := c.get("k2"); ok {
		t.Fatal("LRU entry survived over budget")
	}
	if _, ok := c.get("k1"); !ok {
		t.Fatal("recently used entry evicted")
	}
	bytes, evicts, entries := c.stats()
	if evicts != 1 || entries != 2 || bytes > 100 {
		t.Fatalf("stats bytes=%d evicts=%d entries=%d", bytes, evicts, entries)
	}
	// An entry above the whole budget is not admitted.
	c.put("huge", make([]byte, 200))
	if _, ok := c.get("huge"); ok {
		t.Fatal("over-budget entry admitted")
	}
}

// TestClusterSingleNodeFallback pins that a 1-member cluster routes
// straight to the in-process engine.
func TestClusterSingleNodeFallback(t *testing.T) {
	nd, err := New(Config{Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	n := models.NSDP(4)
	seq, err := reach.Explore(n, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clu, err := nd.Explore(n, nil, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "single-node", seq, clu)
}

// TestCommitChecksPending pins the peer's end of the commit contract: a
// commit may only name markings pending on this peer, and once one leaves
// discoveries unassigned (the coordinator's MaxStates cut) the peer
// refuses to expand further — it holds the cut markings as established.
func TestCommitChecksPending(t *testing.T) {
	nd, err := New(Config{Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	nd.Register(mux)
	post := func(path string, body *bytes.Buffer) int {
		req := httptest.NewRequest("POST", "/cluster/v1/"+path, body)
		req.Header.Set("X-Cluster-Job", "j1")
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code
	}
	n := models.NSDP(4)
	var netText strings.Builder
	if err := pnio.Write(&netText, n); err != nil {
		t.Fatal(err)
	}
	start, _ := json.Marshal(startReq{Job: "j1", Net: netText.String()})
	if code := post("start", bytes.NewBuffer(start)); code != http.StatusOK {
		t.Fatalf("start: %d", code)
	}
	m0 := n.InitialMarking()
	var level, succs batch
	level.add(m0, 0)
	for _, tr := range n.EnabledTrans(m0) {
		next, _ := n.Fire(m0, tr)
		succs.add(next, 0)
	}
	if succs.len() < 2 {
		t.Fatal("want a root with two successors")
	}
	if code := post("expand", level.body(frameExpand)); code != http.StatusOK {
		t.Fatalf("expand: %d", code)
	}

	var stranger batch
	stranger.add(n.EmptyMarking(), 1)
	if code := post("commit", stranger.body(frameCommit)); code != http.StatusBadRequest {
		t.Errorf("commit of a marking never discovered: %d, want 400", code)
	}
	var root batch
	root.add(m0, 1)
	if code := post("commit", root.body(frameCommit)); code != http.StatusBadRequest {
		t.Errorf("commit of an established marking: %d, want 400", code)
	}

	var first batch
	first.add(succs.marking(0), 1)
	if code := post("commit", first.body(frameCommit)); code != http.StatusOK {
		t.Fatalf("partial commit: %d", code)
	}
	if code := post("expand", first.body(frameExpand)); code != http.StatusConflict {
		t.Errorf("expand after a cut commit: %d, want 409", code)
	}
}
