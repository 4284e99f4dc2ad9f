package reach

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
)

func TestFig1FullGraph(t *testing.T) {
	res, err := Explore(models.Fig1(3), Options{StoreGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 8 {
		t.Fatalf("states=%d want 8", res.States)
	}
	if res.Arcs != 12 { // each of 8 cube vertices has (3 - popcount) arcs: 3*2^2
		t.Errorf("arcs=%d want 12", res.Arcs)
	}
	if !res.Deadlock {
		t.Error("terminal state is a deadlock")
	}
	if len(res.Graph.States) != 8 {
		t.Error("graph not stored")
	}
}

func TestStateLimit(t *testing.T) {
	_, err := Explore(models.NSDP(6), Options{MaxStates: 10})
	if !errors.Is(err, ErrStateLimit) {
		t.Errorf("got %v, want ErrStateLimit", err)
	}
}

func TestStopAtDeadlock(t *testing.T) {
	res, err := Explore(models.NSDP(4), Options{StopAtDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlock || res.Complete {
		t.Error("expected early stop at a deadlock")
	}
	if res.States >= 322 {
		t.Errorf("explored %d states, should stop early", res.States)
	}
}

func TestUnsafeNetReported(t *testing.T) {
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
	if _, err := Explore(n, Options{}); !errors.Is(err, ErrUnsafe) {
		t.Errorf("got %v, want ErrUnsafe", err)
	}
}

func TestBadPredicate(t *testing.T) {
	net := models.NSDP(2)
	hasL0, _ := net.PlaceByName("hasL0")
	hasL1, _ := net.PlaceByName("hasL1")
	res, err := Explore(net, Options{Bad: func(m petri.Marking) bool {
		return m.Has(hasL0) && m.Has(hasL1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BadFound || len(res.BadStates) == 0 {
		t.Fatal("the all-left state must be found")
	}
	// With StopAtBad, search stops early.
	res2, err := Explore(net, Options{
		Bad:       func(m petri.Marking) bool { return m.Has(hasL0) },
		StopAtBad: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.BadFound || res2.Complete {
		t.Error("StopAtBad must stop the search")
	}
}

func TestLiveness(t *testing.T) {
	// RW is live: every transition fires from everywhere eventually.
	res, err := Explore(models.ReadersWriters(2), Options{StoreGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	for tr, live := range res.Graph.Live() {
		if !live {
			t.Errorf("RW(2): transition %d not live", tr)
		}
	}
	// Fig2 terminates: nothing is live, everything quasi-live.
	res2, err := Explore(models.Fig2(2), Options{StoreGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	for tr, live := range res2.Graph.Live() {
		if live {
			t.Errorf("Fig2(2): transition %d cannot be live", tr)
		}
	}
	for tr, ql := range res2.Graph.QuasiLive() {
		if !ql {
			t.Errorf("Fig2(2): transition %d must be quasi-live", tr)
		}
	}
}

func TestSCCs(t *testing.T) {
	// RW's reachability graph is one SCC (fully cyclic).
	res, err := Explore(models.ReadersWriters(2), Options{StoreGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	sccs := res.Graph.SCCs()
	if len(sccs) != 1 {
		t.Errorf("RW(2): %d SCCs, want 1", len(sccs))
	}
	term := res.Graph.TerminalSCCs()
	if len(term) != 1 {
		t.Errorf("RW(2): %d terminal SCCs, want 1", len(term))
	}
	// Fig2(2): all states are their own SCC; terminal ones are deadlocks.
	res2, err := Explore(models.Fig2(2), Options{StoreGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res2.Graph.SCCs()); got != 9 {
		t.Errorf("Fig2(2): %d SCCs, want 9", got)
	}
	if got := len(res2.Graph.TerminalSCCs()); got != 4 {
		t.Errorf("Fig2(2): %d terminal SCCs, want 4 (the 2x2 resolutions)", got)
	}
}

// BenchmarkExploreSeqAllocs is the allocation gate of the sequential
// engine (scripts/check.sh requires ≤ 0.1 allocs/state): successors are
// fired into one scratch marking and interned as arena words, so a state
// costs only its amortized share of arena chunks and table doublings.
// The map-and-key-string store it replaced paid 13.9 allocs/state.
func BenchmarkExploreSeqAllocs(b *testing.B) { benchAllocs(b, Options{}) }

// BenchmarkExploreW1Allocs is the same gate at Workers: 1, which never
// hands a level over and so is the sequential engine: it must cost what
// the sequential engine costs (≤ 0.1 allocs/state), not an owner store,
// a global-id list and a per-level view list more.
func BenchmarkExploreW1Allocs(b *testing.B) { benchAllocs(b, Options{Workers: 1}) }

// benchAllocs explores nsdp(7) b.N times and reports what a state costs
// the allocator, as the allocation gates of scripts/check.sh read it.
func benchAllocs(b *testing.B, opts Options) {
	net := models.NSDP(7)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := Explore(net, opts)
		if err != nil {
			b.Fatal(err)
		}
		states += res.States
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(states), "allocs/state")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
}

// TestQueuePeakAccounting pins the reach.queue_peak gauge (the BFS queue
// is the id range between the expansion cursor and the store's length): for Fig1(3) (the 3-cube) the BFS
// frontier peaks at 4 pending states (the tail of level 1 plus the first
// two level-2 discoveries), and the gauge must never exceed the state
// count.
func TestQueuePeakAccounting(t *testing.T) {
	reg := obs.New()
	res, err := Explore(models.Fig1(3), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	peak := reg.Gauge("reach.queue_peak").Value()
	if peak != 4 {
		t.Errorf("reach.queue_peak = %d, want 4", peak)
	}
	if peak > int64(res.States) {
		t.Errorf("queue peak %d exceeds state count %d", peak, res.States)
	}
}
