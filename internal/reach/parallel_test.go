package reach

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/stop"
)

// sameResult asserts the parallel explorer reproduced the sequential
// Result bit for bit: counts, verdict lists in order, and the stored
// graph when present.
func sameResult(t *testing.T, name string, seq, par *Result) {
	t.Helper()
	if seq.States != par.States {
		t.Errorf("%s: states %d != %d", name, par.States, seq.States)
	}
	if seq.Arcs != par.Arcs {
		t.Errorf("%s: arcs %d != %d", name, par.Arcs, seq.Arcs)
	}
	if seq.Deadlock != par.Deadlock || seq.BadFound != par.BadFound || seq.Complete != par.Complete {
		t.Errorf("%s: flags (dead=%v bad=%v complete=%v) != (dead=%v bad=%v complete=%v)",
			name, par.Deadlock, par.BadFound, par.Complete, seq.Deadlock, seq.BadFound, seq.Complete)
	}
	sameMarkings(t, name+"/deadlocks", seq.Deadlocks, par.Deadlocks)
	sameMarkings(t, name+"/bad", seq.BadStates, par.BadStates)
	if (seq.Graph == nil) != (par.Graph == nil) {
		t.Fatalf("%s: graph presence differs", name)
	}
	if seq.Graph == nil {
		return
	}
	sameMarkings(t, name+"/graph.states", seq.Graph.States, par.Graph.States)
	if len(seq.Graph.Edges) != len(par.Graph.Edges) {
		t.Fatalf("%s: graph edges for %d states != %d", name, len(par.Graph.Edges), len(seq.Graph.Edges))
	}
	for id := range seq.Graph.Edges {
		se, pe := seq.Graph.Edges[id], par.Graph.Edges[id]
		if len(se) != len(pe) {
			t.Fatalf("%s: state %d has %d edges, want %d", name, id, len(pe), len(se))
		}
		for i := range se {
			if se[i] != pe[i] {
				t.Fatalf("%s: state %d edge %d is %+v, want %+v", name, id, i, pe[i], se[i])
			}
		}
	}
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

// TestParallelMatchesSequential drives the parallel explorer at several
// worker counts over small models (with a Bad predicate, with and without
// a stored graph, which keeps a run sequential) and requires results
// identical to Workers: 0.
func TestParallelMatchesSequential(t *testing.T) {
	nets := []*petri.Net{
		models.Fig1(3), models.Fig2(3), models.Fig3(), models.Fig7(),
		models.NSDP(4), models.ReadersWriters(4), models.Overtake(3),
	}
	for _, net := range nets {
		bad := func(m petri.Marking) bool { return m.Has(petri.Place(0)) }
		for _, graph := range []bool{true, false} {
			seq, err := Explore(net, Options{StoreGraph: graph, Bad: bad})
			if err != nil {
				t.Fatalf("%s: %v", net.Name(), err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				par, err := Explore(net, Options{StoreGraph: graph, Bad: bad, Workers: w})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", net.Name(), w, err)
				}
				sameResult(t, net.Name(), seq, par)
			}
		}
	}
}

// TestMaxStatesExact is the regression test for the off-by-one: a limit
// of N must admit exactly N states, sequentially and in parallel.
func TestMaxStatesExact(t *testing.T) {
	for _, w := range []int{0, 4} {
		res, err := Explore(models.NSDP(6), Options{MaxStates: 10, Workers: w})
		if !errors.Is(err, ErrStateLimit) {
			t.Fatalf("workers=%d: got %v, want ErrStateLimit", w, err)
		}
		if res.States != 10 {
			t.Errorf("workers=%d: MaxStates=10 admitted %d states, want exactly 10", w, res.States)
		}
		if res.Complete {
			t.Errorf("workers=%d: capped run must not report Complete", w)
		}
	}
}

// TestParallelMaxStatesMatchesSequential sweeps caps that stop the search
// mid-level and requires the parallel engine to reproduce the sequential
// stop point exactly, including arcs and the truncated graph.
func TestParallelMaxStatesMatchesSequential(t *testing.T) {
	net := models.NSDP(4) // 322 states
	for _, cap := range []int{1, 2, 7, 50, 321, 322} {
		for _, graph := range []bool{true, false} {
			seq, seqErr := Explore(net, Options{MaxStates: cap, StoreGraph: graph})
			par, parErr := Explore(net, Options{MaxStates: cap, StoreGraph: graph, Workers: 4})
			if !errors.Is(parErr, seqErr) && !(seqErr == nil && parErr == nil) {
				t.Fatalf("cap=%d: err %v != %v", cap, parErr, seqErr)
			}
			sameResult(t, net.Name(), seq, par)
		}
	}
}

// TestParallelEarlyStopFallsBack pins that the latency-oriented early
// stops still behave exactly like the sequential engine when Workers is
// set (they route to the sequential path).
func TestParallelEarlyStopFallsBack(t *testing.T) {
	net := models.NSDP(4)
	seq, err := Explore(net, Options{StopAtDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explore(net, Options{StopAtDeadlock: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, net.Name(), seq, par)
	if par.Complete {
		t.Error("StopAtDeadlock run must stop early")
	}
}

// TestParallelUnsafeNet checks the parallel engine reports the same
// ErrUnsafe (same scan-order-first firing in the message) as the
// sequential one.
func TestParallelUnsafeNet(t *testing.T) {
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
	_, seqErr := Explore(n, Options{})
	if !errors.Is(seqErr, ErrUnsafe) {
		t.Fatalf("sequential: got %v, want ErrUnsafe", seqErr)
	}
	_, parErr := Explore(n, Options{Workers: 4})
	if !errors.Is(parErr, ErrUnsafe) {
		t.Fatalf("parallel: got %v, want ErrUnsafe", parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error message differs:\n  seq: %s\n  par: %s", seqErr, parErr)
	}
}

// TestParallelMetrics checks the parallel-only metrics are exported and
// the shared ones match the sequential run's.
func TestParallelMetrics(t *testing.T) {
	net := models.NSDP(4)
	seqReg := obs.New()
	if _, err := Explore(net, Options{Metrics: seqReg}); err != nil {
		t.Fatal(err)
	}
	parReg := obs.New()
	if _, err := Explore(net, Options{Metrics: parReg, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"reach.states", "reach.arcs", "reach.deadlocks"} {
		if s, p := seqReg.Counter(name).Value(), parReg.Counter(name).Value(); s != p {
			t.Errorf("%s: parallel %d != sequential %d", name, p, s)
		}
	}
	if got := parReg.Gauge("reach.workers").Value(); got != 4 {
		t.Errorf("reach.workers = %d, want 4", got)
	}
	if parReg.Counter("reach.batches").Value() == 0 {
		t.Error("reach.batches not exported")
	}
	if seqReg.Gauge("reach.queue_peak").Value() == 0 {
		t.Error("sequential reach.queue_peak lost")
	}
	if parReg.Gauge("reach.queue_peak").Value() == 0 {
		t.Error("parallel reach.queue_peak (peak level size) lost")
	}
}

// forceWidth lowers levelWidth for one test, so nets of a few hundred
// states take the routed two-phase path (or, at a middling width, switch
// between it and the inline one from level to level).
func forceWidth(t *testing.T, k int) {
	old := levelWidth
	levelWidth = k
	t.Cleanup(func() { levelWidth = old })
}

// boundaries returns the state count at every BFS level boundary of net.
func boundaries(t *testing.T, net *petri.Net) []int {
	var at []int
	hook := &stop.Hook[*Snapshot]{Poll: func(states int, _ int64) stop.Action { at = append(at, states); return stop.Continue }}
	if _, err := Explore(net, Options{Ckpt: hook}); err != nil {
		t.Fatal(err)
	}
	return at
}

// TestRoutedPath is the determinism contract on the path tier-1 nets are
// too small to reach at the production levelWidth: every comparison is
// against Workers: 0, bit for bit.
func TestRoutedPath(t *testing.T) {
	bad := func(m petri.Marking) bool { return m.Has(petri.Place(0)) }
	nets := []*petri.Net{models.NSDP(6)}
	for _, c := range []struct {
		fam  string
		size int
	}{{"rw", 9}, {"over", 4}, {"asat", 4}} {
		net, err := models.ByName(c.fam, c.size)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}

	t.Run("existing", func(t *testing.T) {
		forceWidth(t, 1)
		TestParallelMatchesSequential(t)
		TestParallelMaxStatesMatchesSequential(t)
		TestParallelUnsafeNet(t)
	})

	// Width 1 routes every level; width 32 also switches modes mid-run. A
	// stored graph keeps a run sequential, so these runs store none.
	for _, width := range []int{1, 32} {
		t.Run(fmt.Sprintf("models/width%d", width), func(t *testing.T) {
			forceWidth(t, width)
			for _, net := range nets {
				seq, err := Explore(net, Options{Bad: bad})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 3, 4, 8, 300} {
					par, err := Explore(net, Options{Bad: bad, Workers: w})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", net.Name(), w, err)
					}
					sameResult(t, fmt.Sprintf("%s workers=%d", net.Name(), w), seq, par)
				}
			}
		})
	}

	// Caps on and around every level boundary and in the middle of every
	// level, with the early levels inline and the wide ones routed.
	t.Run("caps", func(t *testing.T) {
		forceWidth(t, 32)
		net := models.NSDP(6)
		at := boundaries(t, net)
		var caps []int
		for i, b := range at {
			caps = append(caps, b-1, b, b+1)
			if i > 0 {
				caps = append(caps, (at[i-1]+b)/2)
			}
		}
		for _, cap := range caps {
			if cap < 1 {
				continue
			}
			seq, seqErr := Explore(net, Options{MaxStates: cap, Bad: bad})
			for _, w := range []int{2, 3} {
				par, parErr := Explore(net, Options{MaxStates: cap, Bad: bad, Workers: w})
				if !errors.Is(parErr, seqErr) && !(seqErr == nil && parErr == nil) {
					t.Fatalf("cap=%d workers=%d: err %v != %v", cap, w, parErr, seqErr)
				}
				sameResult(t, fmt.Sprintf("cap=%d workers=%d", cap, w), seq, par)
			}
		}
	})

	// Suspend at every level boundary: the snapshot is the sequential
	// engine's, and resuming it — on either path — finishes like the
	// uninterrupted sequential run.
	t.Run("resume", func(t *testing.T) {
		net := models.NSDP(6)
		want, err := Explore(net, Options{Bad: bad})
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 32} {
			forceWidth(t, width)
			for level := range boundaries(t, net) {
				var snaps [2]*Snapshot
				for i, w := range []int{0, 3} {
					hook := &stop.Hook[*Snapshot]{
						Poll: func(_ int, levels int64) stop.Action {
							if levels == int64(level) {
								return stop.Suspend
							}
							return stop.Continue
						},
						Save: func(sn *Snapshot) error { snaps[i] = sn; return nil },
					}
					if _, err := Explore(net, Options{Bad: bad, Workers: w, Ckpt: hook}); !errors.Is(err, stop.ErrSuspended) {
						t.Fatalf("level %d workers=%d: got %v, want stop.ErrSuspended", level, w, err)
					}
				}
				seq, par := snaps[0], snaps[1]
				sameMarkings(t, fmt.Sprintf("level %d snapshot", level), seq.States, par.States)
				if seq.FrontierStart != par.FrontierStart || seq.Arcs != par.Arcs || seq.Levels != par.Levels ||
					!slices.Equal(seq.DeadIDs, par.DeadIDs) || !slices.Equal(seq.BadIDs, par.BadIDs) {
					t.Fatalf("level %d: parallel snapshot differs from the sequential one", level)
				}
				got, err := Explore(net, Options{Bad: bad, Workers: 3, Resume: par})
				if err != nil {
					t.Fatalf("resume at level %d: %v", level, err)
				}
				sameResult(t, fmt.Sprintf("resumed at level %d width %d", level, width), want, got)
			}
		}
	})

	t.Run("randnet", func(t *testing.T) {
		forceWidth(t, 1)
		for seed := int64(1); seed <= 200; seed++ {
			net := randnet.Generate(randnet.Default(seed))
			seq, seqErr := Explore(net, Options{Bad: bad})
			for _, w := range []int{2, 3} {
				par, parErr := Explore(net, Options{Bad: bad, Workers: w})
				if seqErr != nil || parErr != nil {
					if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
						t.Fatalf("seed %d workers=%d: err %v != %v", seed, w, parErr, seqErr)
					}
					continue
				}
				sameResult(t, fmt.Sprintf("seed %d workers=%d", seed, w), seq, par)
			}
		}
	})
}

// arbitraryNet builds a small net of random arcs and a random initial
// marking. Nothing keeps it safe, so many such nets are not.
func arbitraryNet(seed int64) *petri.Net {
	rng := rand.New(rand.NewSource(seed))
	b := petri.NewBuilder(fmt.Sprintf("arbitrary(%d)", seed))
	places := make([]petri.Place, 5+rng.Intn(8))
	for i := range places {
		places[i] = b.Place(fmt.Sprintf("p%d", i))
		if rng.Intn(3) == 0 {
			b.Mark(places[i])
		}
	}
	pick := func(k int) []petri.Place {
		var ps []petri.Place
		for _, i := range rng.Perm(len(places))[:k] {
			ps = append(ps, places[i])
		}
		return ps
	}
	// Most transitions keep the token count, so that a net runs a while
	// before it double-marks a place, if it ever does.
	for i := range 2*len(places) + rng.Intn(8) {
		in := 1 + rng.Intn(2)
		out := in
		if rng.Intn(4) == 0 {
			out = 1 + rng.Intn(3)
		}
		b.TransArcs(fmt.Sprintf("t%d", i), pick(in), pick(out))
	}
	return b.MustBuild()
}

// TestRoutedDifferential is the determinism contract where the owner
// rebuilds every routed successor from its order key: randnet seeds and
// small arbitrary nets, at level widths 1 and 7 and on 2, 3 and 4
// workers, uncapped and capped at 1, 2, n/3, n/2 and n−1 of the n states
// the sequential run finds. Every run must equal Workers: 0: the same
// Result, or the same ErrUnsafe message.
func TestRoutedDifferential(t *testing.T) {
	bad := func(m petri.Marking) bool { return m.Has(petri.Place(0)) }
	var nets []*petri.Net
	for seed := int64(1); seed <= 200; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	for seed := int64(1); seed <= 500; seed++ {
		nets = append(nets, arbitraryNet(seed))
	}
	unsafe, capped := 0, 0
	for _, width := range []int{1, 7} {
		forceWidth(t, width)
		for _, net := range nets {
			// Progress counts the states found also when the run fails.
			var found obs.Counter
			Explore(net, Options{Bad: bad, Progress: &found})
			n := int(found.Value())
			caps := []int{0} // uncapped
			for _, c := range []int{1, 2, n / 3, n / 2, n - 1} {
				if c > 0 && !slices.Contains(caps, c) {
					caps = append(caps, c)
				}
			}
			for _, cap := range caps {
				name := fmt.Sprintf("%s width=%d cap=%d", net.Name(), width, cap)
				seq, seqErr := Explore(net, Options{Bad: bad, MaxStates: cap})
				for _, w := range []int{2, 3, 4} {
					par, parErr := Explore(net, Options{Bad: bad, MaxStates: cap, Workers: w})
					if errors.Is(seqErr, ErrUnsafe) {
						if parErr == nil || parErr.Error() != seqErr.Error() {
							t.Fatalf("%s workers=%d: err %v, want %v", name, w, parErr, seqErr)
						}
						unsafe++
						continue
					}
					if !errors.Is(parErr, seqErr) && !(seqErr == nil && parErr == nil) {
						t.Fatalf("%s workers=%d: err %v != %v", name, w, parErr, seqErr)
					}
					sameResult(t, fmt.Sprintf("%s workers=%d", name, w), seq, par)
					if seqErr != nil {
						capped++
					}
				}
			}
		}
	}
	t.Logf("%d nets: %d unsafe and %d capped comparisons", len(nets), unsafe, capped)
	if unsafe == 0 || capped == 0 {
		t.Fatalf("%d unsafe and %d capped comparisons: a stop point went untested", unsafe, capped)
	}
}

// table1Nets returns the Table 1 instances of up to 150 000 states
// (every row but nsdp(10) and asat(8)).
func table1Nets(t *testing.T) []*petri.Net {
	var nets []*petri.Net
	for _, spec := range []struct {
		family string
		sizes  []int
	}{
		{"nsdp", []int{2, 4, 6, 8}}, {"asat", []int{2, 4}}, {"over", []int{2, 3, 4, 5}}, {"rw", []int{6, 9, 12, 15}},
	} {
		for _, size := range spec.sizes {
			net, err := models.ByName(spec.family, size)
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, net)
		}
	}
	return nets
}

// handoffAt returns the boundary at which a run of net with Workers ≥ 2
// hands over at the current levelWidth — its coordinate (expanded levels)
// and the states interned there — or ok false if the run never does.
func handoffAt(t *testing.T, net *petri.Net) (level, states int, ok bool) {
	prev := 0
	for level, states := range boundaries(t, net) {
		if states-prev >= levelWidth {
			return level, states, true
		}
		prev = states
	}
	return 0, 0, false
}

// TestHandoffBitIdentical is the determinism contract across the handoff
// from the sequential engine to the parallel one, with the handoff forced
// early (width 64) and onto the initial marking (width 1), on the Table 1
// nets and randnet seeds: the Result equals Workers: 0, caps at the
// handoff boundary and one state either side stop where the sequential
// engine stops, and a suspend at the handoff boundary resumes
// bit-identically on either engine. Workers: 1 never hands over.
func TestHandoffBitIdentical(t *testing.T) {
	bad := func(m petri.Marking) bool { return m.Has(petri.Place(0)) }
	nets := table1Nets(t)
	for seed := int64(1); seed <= 200; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	for _, width := range []int{64, 1} {
		forceWidth(t, width)
		handoffs, safe := 0, 0
		for _, net := range nets {
			name := fmt.Sprintf("%s width=%d", net.Name(), width)
			want, wantErr := Explore(net, Options{Bad: bad})
			if errors.Is(wantErr, ErrUnsafe) {
				for _, w := range []int{2, 3} {
					if _, err := Explore(net, Options{Bad: bad, Workers: w}); err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s workers=%d: err %v, want %v", name, w, err, wantErr)
					}
				}
				continue
			}
			if wantErr != nil {
				t.Fatalf("%s: %v", name, wantErr)
			}
			safe++
			for _, w := range []int{2, 3} {
				got, err := Explore(net, Options{Bad: bad, Workers: w})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, w, err)
				}
				sameResult(t, fmt.Sprintf("%s workers=%d", name, w), want, got)
			}
			level, at, ok := handoffAt(t, net)
			if !ok {
				continue
			}
			handoffs++

			for _, cap := range []int{at - 1, at, at + 1} {
				if cap < 1 {
					continue
				}
				seq, seqErr := Explore(net, Options{MaxStates: cap, Bad: bad})
				for _, w := range []int{2, 3} {
					par, parErr := Explore(net, Options{MaxStates: cap, Bad: bad, Workers: w})
					if !errors.Is(parErr, seqErr) && !(seqErr == nil && parErr == nil) {
						t.Fatalf("%s cap=%d workers=%d: err %v != %v", name, cap, w, parErr, seqErr)
					}
					sameResult(t, fmt.Sprintf("%s cap=%d workers=%d", name, cap, w), seq, par)
				}
			}

			var snap *Snapshot
			hook := &stop.Hook[*Snapshot]{
				Poll: func(_ int, levels int64) stop.Action {
					if levels == int64(level) {
						return stop.Suspend
					}
					return stop.Continue
				},
				Save: func(sn *Snapshot) error { snap = sn; return nil },
			}
			if _, err := Explore(net, Options{Bad: bad, Workers: 2, Ckpt: hook}); !errors.Is(err, stop.ErrSuspended) {
				t.Fatalf("%s: suspend at the handoff: got %v, want stop.ErrSuspended", name, err)
			}
			if snap.FrontierStart+levelWidth > len(snap.States) || len(snap.States) != at {
				t.Fatalf("%s: suspended with %d states, frontier from %d; the handoff is at %d", name, len(snap.States), snap.FrontierStart, at)
			}
			for _, w := range []int{0, 3} {
				got, err := Explore(net, Options{Bad: bad, Workers: w, Resume: snap})
				if err != nil {
					t.Fatalf("%s: resume at the handoff, workers=%d: %v", name, w, err)
				}
				sameResult(t, fmt.Sprintf("%s resumed at the handoff, workers=%d", name, w), want, got)
			}

			reg := obs.New()
			if _, err := Explore(net, Options{Bad: bad, Workers: 1, Metrics: reg}); err != nil {
				t.Fatal(err)
			}
			if b := reg.Counter("reach.batches").Value(); b != 0 {
				t.Fatalf("%s: Workers: 1 reports reach.batches %d, want 0", name, b)
			}
		}
		// At width 1 every safe net hands over its initial marking.
		if handoffs == 0 || width == 1 && handoffs != safe {
			t.Fatalf("width %d: %d of %d safe nets hand over", width, handoffs, safe)
		}
	}
}

// TestHandoffOneAccount pins that a run reports one account across the
// handoff, on nsdp(8) at Workers: 2 and the production levelWidth: the
// reach.* metrics are exported once with their meaning (batches: the
// levels expanded, sequential prefix included), Progress ends at States,
// and the trace holds every state once and one explore phase on the
// "reach" track. A real resume adds the snapshot's states to Progress.
func TestHandoffOneAccount(t *testing.T) {
	if testing.Short() {
		t.Skip("explores nsdp(8)")
	}
	net := models.NSDP(8)
	if _, _, ok := handoffAt(t, net); !ok {
		t.Fatal("nsdp(8) never hands over")
	}
	want, err := Explore(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	depth := len(boundaries(t, net))

	reg := obs.New()
	var progress obs.Counter
	tr := trace.New(trace.Options{Cap: 1 << 18})
	res, err := Explore(net, Options{Workers: 2, Metrics: reg, Progress: &progress, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "nsdp(8) workers=2", want, res)
	for name, v := range map[string]int{
		"reach.states": res.States, "reach.arcs": res.Arcs, "reach.deadlocks": len(res.Deadlocks), "reach.batches": depth,
	} {
		if got := reg.Counter(name).Value(); got != int64(v) {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if got := reg.Gauge("reach.workers").Value(); got != 2 {
		t.Errorf("reach.workers = %d, want 2", got)
	}
	if got := progress.Value(); got != int64(res.States) {
		t.Errorf("Progress ends at %d, want States %d", got, res.States)
	}
	sum := trace.Summarize(tr.Dump(), 5)
	if sum.States != res.States {
		t.Errorf("trace holds %d state events, want %d", sum.States, res.States)
	}
	explores := 0
	for _, ph := range sum.Phases {
		if ph.Track == "reach" && ph.Name == "explore" {
			explores += ph.Count
		}
	}
	if explores != 1 {
		t.Errorf("trace has %d reach explore phases, want 1: %+v", explores, sum.Phases)
	}
	// The worker tracks come with the handoff: one per worker here, none
	// on a net that never widens to levelWidth.
	if sum.Tracks != 3 {
		t.Errorf("handed-over run has %d tracks, want reach + 2 workers", sum.Tracks)
	}
	narrow := trace.New(trace.Options{})
	if _, err := Explore(models.NSDP(6), Options{Workers: 2, Trace: narrow}); err != nil {
		t.Fatal(err)
	}
	if got := trace.Summarize(narrow.Dump(), 5).Tracks; got != 1 {
		t.Errorf("nsdp(6) never hands over but has %d tracks, want 1", got)
	}

	// A suspend after the handoff, resumed on the parallel explorer.
	var snap *Snapshot
	hook := &stop.Hook[*Snapshot]{
		Poll: func(_ int, levels int64) stop.Action {
			if levels == int64(depth-1) {
				return stop.Suspend
			}
			return stop.Continue
		},
		Save: func(sn *Snapshot) error { snap = sn; return nil },
	}
	if _, err := Explore(net, Options{Workers: 2, Ckpt: hook}); !errors.Is(err, stop.ErrSuspended) {
		t.Fatalf("suspend: got %v", err)
	}
	var resumed obs.Counter
	if res, err = Explore(net, Options{Workers: 2, Resume: snap, Progress: &resumed}); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Value(); got != int64(res.States) {
		t.Errorf("resumed Progress ends at %d, want States %d", got, res.States)
	}
}

// TestHandoffRefusedSnapshot pins that a Resume snapshot the explorer
// refuses is an error on every engine, also when metrics are exported.
func TestHandoffRefusedSnapshot(t *testing.T) {
	net := models.NSDP(4)
	for _, workers := range []int{0, 2} {
		if _, err := Explore(net, Options{Workers: workers, Metrics: obs.New(), Resume: &Snapshot{}}); err == nil {
			t.Errorf("workers=%d: empty snapshot resumed without error", workers)
		}
	}
}

// BenchmarkExploreParAllocs is the allocation gate of the parallel engine
// (scripts/check.sh bounds allocs/state): nsdp(7) on two workers with
// every level routed, so a routing buffer or a per-level list that stops
// being reused shows as allocations (and bytes) per state.
func BenchmarkExploreParAllocs(b *testing.B) {
	defer func(old int) { levelWidth = old }(levelWidth)
	levelWidth = 1
	benchAllocs(b, Options{Workers: 2})
}
