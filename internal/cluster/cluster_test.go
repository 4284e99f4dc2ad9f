package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/randnet"
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

	// The sweep, at three local widths: every level over the wire, local
	// and distributed levels mixed within one run, and the default.
	for _, width := range []int{0, 60, localWidth} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			forceLocalWidth(t, width)
			for _, spec := range []struct {
				family string
				size   int
			}{{"nsdp", 7}, {"rw", 12}, {"over", 4}, {"asat", 4}} {
				n, err := models.ByName(spec.family, spec.size)
				if err != nil {
					t.Fatal(err)
				}
				for _, cap := range []int{0, 1, 37, 500, 5000} {
					sameRun(t, nodes[cap%3], fmt.Sprintf("%s(%d)/cap=%d", spec.family, spec.size, cap), n, nil, reach.Options{MaxStates: cap})
				}
			}
			bad := []petri.Place{0, 1}
			pred := func(m petri.Marking) bool { return m.Has(bad[0]) && m.Has(bad[1]) }
			sameRun(t, nodes[1], "rw12-safety", rw12, bad, reach.Options{Bad: pred})
			for _, cap := range []int{0, 1, 5} {
				sameRun(t, nodes[2], fmt.Sprintf("unsafe-deep/cap=%d", cap), deepUnsafeNet(t), nil, reach.Options{MaxStates: cap})
			}
			for _, cap := range []int{0, 2, 3, 4, 5, 6, 7} {
				sameRun(t, nodes[cap%3], fmt.Sprintf("ladder/cap=%d", cap), ladderNet(t), nil, reach.Options{MaxStates: cap})
			}
			for seed := int64(1); seed <= 40; seed++ {
				n := randnet.Generate(randnet.Default(seed))
				for _, cap := range []int{0, 4, 9} {
					sameRun(t, nodes[seed%3], fmt.Sprintf("%s/cap=%d", n.Name(), cap), n, nil, reach.Options{MaxStates: cap})
				}
			}
		})
	}
}

// forceLocalWidth sets localWidth for one test.
func forceLocalWidth(t *testing.T, width int) {
	old := localWidth
	localWidth = width
	t.Cleanup(func() { localWidth = old })
}

// sameRun explores n sequentially and on the cluster and compares the
// Results, the errors, and the states each interned on the way (its
// progress ticks), which a failed run reports nowhere else.
func sameRun(t *testing.T, nd *Node, name string, n *petri.Net, bad []petri.Place, o reach.Options) {
	t.Helper()
	seqTicks, cluTicks := &obs.Progress{}, &obs.Progress{}
	o.Progress = seqTicks
	seq, seqErr := reach.Explore(n, o)
	o.Progress = cluTicks
	clu, cluErr := nd.Explore(n, bad, o)
	if fmt.Sprint(seqErr) != fmt.Sprint(cluErr) {
		t.Errorf("%s: error %v, sequential %v", name, cluErr, seqErr)
	}
	if seqTicks.Count() != cluTicks.Count() {
		t.Errorf("%s: %d states interned, sequential %d", name, cluTicks.Count(), seqTicks.Count())
	}
	if (seq == nil) != (clu == nil) {
		t.Errorf("%s: Result %v, sequential %v", name, clu, seq)
	} else if seq != nil {
		sameResult(t, name, seq, clu)
	}
}

// deepUnsafeNet reaches its first unsafe firings (c→r or d→r with r
// marked) on the fifth level, where the e/f toggle still finds new
// markings behind them in scan order.
func deepUnsafeNet(t *testing.T) *petri.Net {
	b := petri.NewBuilder("unsafe-deep")
	a, bb, c, d, r, e, f := b.Place("a"), b.Place("b"), b.Place("c"), b.Place("d"), b.Place("r"), b.Place("e"), b.Place("f")
	b.TransArcs("t1", []petri.Place{a}, []petri.Place{c})
	b.TransArcs("t2", []petri.Place{bb}, []petri.Place{d})
	b.TransArcs("t3", []petri.Place{c}, []petri.Place{r})
	b.TransArcs("t4", []petri.Place{d}, []petri.Place{r})
	b.TransArcs("t5", []petri.Place{e}, []petri.Place{f})
	b.TransArcs("t6", []petri.Place{f}, []petri.Place{e})
	b.Mark(a, bb, e)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// ladderNet is a chain p0 → … → p6 that may leave each rung for a dead
// end x_i, tried before the next rung on even rungs and after it on odd
// ones: every level holds a deadlock, and a cap leaves one among the
// states it interns last or among the parents it does not expand.
func ladderNet(t *testing.T) *petri.Net {
	b := petri.NewBuilder("ladder")
	p := b.Place("p0")
	b.Mark(p)
	for i := range 6 {
		x, next := b.Place(fmt.Sprintf("x%d", i)), b.Place(fmt.Sprintf("p%d", i+1))
		if i%2 == 1 {
			b.TransArcs(fmt.Sprintf("s%d", i), []petri.Place{p}, []petri.Place{next})
		}
		b.TransArcs(fmt.Sprintf("d%d", i), []petri.Place{p}, []petri.Place{x})
		if i%2 == 0 {
			b.TransArcs(fmt.Sprintf("s%d", i), []petri.Place{p}, []petri.Place{next})
		}
		p = next
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestClusterMetrics checks the coordinator exports the per-run
// cluster.* metrics and the same reach.* counters as the in-process
// engines, so reach.states deltas work for cluster runs too. Every
// level goes over the wire.
func TestClusterMetrics(t *testing.T) {
	forceLocalWidth(t, 0)
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
	if got, ok := snap.Counters["cluster.local_levels"]; !ok || got != 0 {
		t.Errorf("cluster.local_levels = %d (recorded %v), want 0 at width 0", got, ok)
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

// TestLocalWidthRouting pins where the default localWidth sends two
// Table 1 instances: nsdp(8), whose widest level has 17 744 positions,
// expands its wide levels on the peers; over(5), whose widest has 3 955,
// never leaves the coordinator.
func TestLocalWidthRouting(t *testing.T) {
	nodes, regs := startCluster(t, 3)
	batches := func() (sum int64) {
		for _, r := range regs {
			sum += r.Snapshot().Counters["cluster.expand_batches_in"]
		}
		return sum
	}
	for _, tc := range []struct {
		family string
		size   int
		remote bool
	}{{"nsdp", 8, true}, {"over", 5, false}} {
		n, err := models.ByName(tc.family, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		before := batches()
		if _, err := nodes[0].Explore(n, nil, reach.Options{Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		sent := batches() - before
		snap := reg.Snapshot()
		levels, local := snap.Counters["cluster.levels"], snap.Counters["cluster.local_levels"]
		if (sent > 0) != tc.remote || (local < levels) != tc.remote {
			t.Errorf("%s(%d): %d expand batches, %d of %d levels local; want remote levels %v",
				tc.family, tc.size, sent, local, levels, tc.remote)
		}
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

// TestRingDistribution pins that the consistent-hash ring is identical
// on every node and spreads keys across all members.
func TestRingDistribution(t *testing.T) {
	nodes, _ := startCluster(t, 3)
	counts := make([]int, 3)
	for i := 0; i < 1000; i++ {
		key := "run-" + strconv.Itoa(i)
		owner := nodes[0].Owner(key)
		for _, nd := range nodes[1:] {
			if got := nd.Owner(key); got != owner {
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

// TestMalformedExpandReply pins both ends of the expand contract. The
// coordinator gets one malformed reply shape per case, from fake peers
// that forward to real nodes and mutate their replies, and must fail the
// run with codec.ErrMalformed rather than panic (a violation outside the
// level used to index past the level). A peer answers 400 to an expand
// whose positions do not ascend.
func TestMalformedExpandReply(t *testing.T) {
	forceLocalWidth(t, 0)
	n := models.NSDP(4)
	m0 := n.InitialMarking()
	nt := petri.Trans(n.NumTrans())
	// mutate edits one honest reply to the batch of positions pos, or
	// reports that this batch does not lend itself to the case.
	for name, mutate := range map[string]func(pos []uint64, re *expandReply, news *batch) bool{
		"flag count": func(pos []uint64, re *expandReply, news *batch) bool {
			re.flags = append(re.flags, 0)
			return true
		},
		"violation outside the level": func(pos []uint64, re *expandReply, news *batch) bool {
			re.hasVio, re.vioOrder = true, reach.OrderKey(1<<20, 0)
			return true
		},
		"violation transition": func(pos []uint64, re *expandReply, news *batch) bool {
			re.hasVio, re.vioOrder = true, reach.OrderKey(int(pos[0]), nt)
			return true
		},
		"report outside the level": func(pos []uint64, re *expandReply, news *batch) bool {
			*news = batch{}
			news.add(m0, reach.OrderKey(1<<20, 0))
			return true
		},
		"report on another peer's position": func(pos []uint64, re *expandReply, news *batch) bool {
			// A position below this batch's last that is not in it lies in
			// the level and was sent to the other peer.
			for i, p := range pos[1:] {
				if gap := pos[i] + 1; gap < p {
					*news = batch{}
					news.add(m0, reach.OrderKey(int(gap), 0))
					return true
				}
			}
			return false
		},
		"report transition": func(pos []uint64, re *expandReply, news *batch) bool {
			*news = batch{}
			news.add(m0, reach.OrderKey(int(pos[0]), nt))
			return true
		},
		"reports not ascending": func(pos []uint64, re *expandReply, news *batch) bool {
			*news = batch{}
			news.add(m0, reach.OrderKey(int(pos[0]), 1))
			news.add(m0, reach.OrderKey(int(pos[0]), 0))
			return true
		},
	} {
		t.Run(name, func(t *testing.T) {
			var mutated atomic.Bool
			coord := startMutatingPair(t, n, func(pos []uint64, re *expandReply, news *batch) {
				if mutate(pos, re, news) {
					mutated.Store(true)
				}
			})
			_, err := coord.Explore(n, nil, reach.Options{})
			if !mutated.Load() {
				t.Fatalf("no batch of the run fit the case (run error %v)", err)
			}
			if !errors.Is(err, codec.ErrMalformed) {
				t.Errorf("run error %v, want codec.ErrMalformed", err)
			}
		})
	}

	t.Run("peer refuses descending positions", func(t *testing.T) {
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
		var netText strings.Builder
		if err := pnio.Write(&netText, n); err != nil {
			t.Fatal(err)
		}
		start, _ := json.Marshal(startReq{Job: "j1", Net: netText.String()})
		if code := post("start", bytes.NewBuffer(start)); code != http.StatusOK {
			t.Fatalf("start: %d", code)
		}
		for _, positions := range [][]uint64{{1, 0}, {3, 3}} {
			var parents batch
			for _, p := range positions {
				parents.add(m0, p)
			}
			if code := post("expand", parents.body(frameExpand)); code != http.StatusBadRequest {
				t.Errorf("expand of positions %v: %d, want 400", positions, code)
			}
		}
		var ascending batch
		ascending.add(m0, 0)
		ascending.add(m0, 7)
		if code := post("expand", ascending.body(frameExpand)); code != http.StatusOK {
			t.Errorf("expand of positions [0 7]: %d, want 200", code)
		}
	})
}

// startMutatingPair boots two real nodes behind fake peers: each fake
// forwards every request to its node and hands every expand reply, with
// the positions of the batch it answers, to mutate before passing it on.
// It returns the node that coordinates.
func startMutatingPair(t *testing.T, n *petri.Net, mutate func(pos []uint64, re *expandReply, news *batch)) *Node {
	srvs := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i := range srvs {
		srvs[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + srvs[i].Listener.Addr().String()
	}
	nodes := make([]*Node, 2)
	for i, srv := range srvs {
		nd, err := New(Config{Self: urls[i], Peers: append([]string(nil), urls...)})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		nd.Register(mux)
		srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/cluster/v1/expand" {
				mux.ServeHTTP(w, r)
				return
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			parents, err := decodeBatch(bytes.NewReader(body), frameExpand, n.Words())
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, r)
			re, news, err := decodeExpandBody(rec.Body, n.Words())
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			mutate(parents.vals, re, news)
			_, _ = w.Write(re.body(news).Bytes())
		})
		srv.Start()
		t.Cleanup(srv.Close)
		nodes[i] = nd
	}
	return nodes[0]
}
