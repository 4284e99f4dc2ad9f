package stubborn

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/reach"
)

// TestFig2Shape checks the paper's Figure 2(b): classical partial-order
// analysis of the N-conflict-pair net explores exactly 2^(N+1) − 1 states.
func TestFig2Shape(t *testing.T) {
	for n := 1; n <= 8; n++ {
		res, err := Explore(models.Fig2(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := 1<<(n+1) - 1; res.States != want {
			t.Errorf("Fig2(%d): got %d states, paper's Figure 2(b) gives %d",
				n, res.States, want)
		}
	}
}

// TestFig1Linear checks that the interleaving blow-up of Figure 1 is
// reduced to a single chain: n+1 states for n independent transitions.
func TestFig1Linear(t *testing.T) {
	for n := 1; n <= 10; n++ {
		res, err := Explore(models.Fig1(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := n + 1; res.States != want {
			t.Errorf("Fig1(%d): got %d states, want linear chain of %d", n, res.States, want)
		}
	}
}

// TestRWNoReduction checks the paper's observation on RW: with the cycle
// proviso that LTL-preserving reducers like SPIN+PO apply, the tight
// read/write cycles force full expansion everywhere, so the reduced state
// space equals the complete one. (Without the proviso a deadlock-only
// stubborn search does shave some states; that variant is recorded too.)
func TestRWNoReduction(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		net := models.ReadersWriters(n)
		full, err := reach.CountStates(net)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(net, Options{Proviso: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.States != full {
			t.Errorf("RW(%d): proviso-reduced=%d full=%d; paper reports no reduction",
				n, res.States, full)
		}
		noProv, err := Explore(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if noProv.States > full {
			t.Errorf("RW(%d): reduced %d > full %d", n, noProv.States, full)
		}
	}
}

// TestDeadlockPreservation cross-validates the reduced exploration against
// exhaustive reachability on all models: deadlock verdicts must agree, and
// every reduced-search deadlock marking must be a real deadlock.
func TestDeadlockPreservation(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(3), models.NSDP(4),
		models.Fig1(4), models.Fig2(3), models.Fig3(), models.Fig7(),
		models.ReadersWriters(3), models.ArbiterTree(2), models.ArbiterTree(4),
		models.Overtake(2), models.Overtake(3),
	}
	for _, net := range nets {
		full, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {Proviso: true}, {Seed: SeedBest, Proviso: true}} {
			res, err := Explore(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Deadlock != full.Deadlock {
				t.Errorf("%s (seed=%d, proviso=%v): reduced deadlock=%v, full=%v",
					net.Name(), opts.Seed, opts.Proviso, res.Deadlock, full.Deadlock)
			}
			if res.States > full.States {
				t.Errorf("%s (seed=%d, proviso=%v): reduced %d > full %d states",
					net.Name(), opts.Seed, opts.Proviso, res.States, full.States)
			}
			realDead := make(map[string]bool)
			for _, m := range full.Deadlocks {
				realDead[m.Key()] = true
			}
			for _, m := range res.Deadlocks {
				if !realDead[m.Key()] {
					t.Errorf("%s: spurious deadlock %s", net.Name(), m.String(net))
				}
			}
			// Completeness: the reduction must find every deadlock marking.
			found := make(map[string]bool)
			for _, m := range res.Deadlocks {
				found[m.Key()] = true
			}
			for _, m := range full.Deadlocks {
				if !found[m.Key()] {
					t.Errorf("%s (seed=%d, proviso=%v): deadlock %s missed by reduction",
						net.Name(), opts.Seed, opts.Proviso, m.String(net))
				}
			}
		}
	}
}

// TestNSDPReduction records the reduction factors on NSDP (shape check:
// strictly fewer states than full, more than GPO's constant 3).
func TestNSDPReduction(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		net := models.NSDP(n)
		full, err := reach.CountStates(net)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.States >= full {
			t.Errorf("NSDP(%d): no reduction (%d >= %d)", n, res.States, full)
		}
		t.Logf("NSDP(%d): full=%d reduced=%d", n, full, res.States)
	}
}

// TestStateLimit pins the MaxStates contract reach documents and
// stubborn now shares: the search stops with ErrStateLimit holding
// exactly MaxStates states — the marking that would have been one too
// many is neither stored nor counted as an arc — and a cap the reduced
// state space fits in changes nothing.
func TestStateLimit(t *testing.T) {
	net := models.NSDP(4)
	full, err := Explore(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		max     int
		limited bool
	}{
		{1, true}, {2, true}, {10, true}, {full.States - 1, true},
		{full.States, false}, {full.States + 1, false}, {0, false},
	} {
		res, err := Explore(net, Options{MaxStates: c.max})
		if !c.limited {
			if err != nil || !res.Complete || res.States != full.States || res.Arcs != full.Arcs {
				t.Errorf("MaxStates=%d: got (%d states, %d arcs, complete=%v, %v), want the full run (%d, %d)",
					c.max, res.States, res.Arcs, res.Complete, err, full.States, full.Arcs)
			}
			continue
		}
		if !errors.Is(err, ErrStateLimit) {
			t.Errorf("MaxStates=%d: err = %v, want ErrStateLimit", c.max, err)
			continue
		}
		if res.States != c.max || res.Complete {
			t.Errorf("MaxStates=%d: stopped with %d states (complete=%v), want exactly %d", c.max, res.States, res.Complete, c.max)
		}
		// The DFS interned every state but the first by one recorded firing.
		if res.Arcs < res.States-1 || res.Arcs > full.Arcs {
			t.Errorf("MaxStates=%d: %d arcs for %d states", c.max, res.Arcs, res.States)
		}
	}
}

// refStubborn is SeedBest without pruning: every enabled transition's
// closure is grown to the end and the first smallest set is kept.
func refStubborn(c *closer, m petri.Marking, enabled []petri.Trans) []petri.Trans {
	best := refClosure(c, m, enabled, enabled[0])
	for _, s := range enabled[1:] {
		if len(best) == 1 {
			break
		}
		if cand := refClosure(c, m, enabled, s); len(cand) < len(best) {
			best = cand
		}
	}
	return best
}

// refClosure returns the enabled members of the stubborn set grown from
// seed, in increasing order, by the rules closer.closure applies.
func refClosure(c *closer, m petri.Marking, enabled []petri.Trans, seed petri.Trans) []petri.Trans {
	n := c.n
	c.newSet()
	c.add(seed)
	work := []petri.Trans{seed}
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if n.Enabled(m, t) {
			for _, p := range n.Pre(t) {
				for _, u := range n.PostT(p) {
					if c.add(u) {
						work = append(work, u)
					}
				}
			}
			continue
		}
		for _, p := range n.Pre(t) {
			if !m.Has(p) {
				for _, u := range n.PreT(p) {
					if c.add(u) {
						work = append(work, u)
					}
				}
				break
			}
		}
	}
	var set []petri.Trans
	for _, t := range enabled {
		if c.stamp[t] == c.epoch {
			set = append(set, t)
		}
	}
	return set
}

// TestSeedBestPruningExact holds the pruned SeedBest to the unpruned
// search: at every state of the reduced state space of the Table 1 nets
// the explicit engines can afford and of 200 random nets, both pick the
// same set in the same order, and Explore counts the states and arcs
// the unpruned sets span.
func TestSeedBestPruningExact(t *testing.T) {
	var nets []*petri.Net
	for _, spec := range []struct {
		family string
		sizes  []int
	}{
		{"nsdp", []int{2, 4, 6, 8}}, {"asat", []int{2, 4}},
		{"over", []int{2, 3, 4, 5}}, {"rw", []int{6, 9, 12, 15}},
	} {
		for _, size := range spec.sizes {
			net, err := models.ByName(spec.family, size)
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, net)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		cfg := randnet.Default(seed)
		if seed > 100 { // denser nets: more enabled transitions per state
			cfg = randnet.Config{Machines: 4, PlacesPer: 4, LocalTrans: 2, SyncTrans: 6, Seed: seed}
		}
		nets = append(nets, randnet.Generate(cfg))
	}
	for _, net := range nets {
		states, arcs, err := refExplore(net)
		if err != nil {
			t.Error(err)
			continue
		}
		res, err := Explore(net, Options{Seed: SeedBest})
		if err != nil {
			t.Fatal(err)
		}
		if res.States != states || res.Arcs != arcs {
			t.Errorf("%s: Explore counts %d states, %d arcs; the unpruned sets span %d, %d",
				net.Name(), res.States, res.Arcs, states, arcs)
		}
	}
}

// refExplore walks the state space the unpruned SeedBest sets span,
// checking the pruned set at every state, and returns its state and arc
// counts.
func refExplore(net *petri.Net) (states, arcs int, err error) {
	pruned, ref := newCloser(net), newCloser(net)
	m0 := net.InitialMarking()
	seen := map[string]bool{m0.Key(): true}
	stack := []petri.Marking{m0}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		enabled := net.AppendEnabled(nil, m)
		if len(enabled) == 0 {
			continue
		}
		want := refStubborn(ref, m, enabled)
		if got := pruned.stubborn(nil, m, enabled, true); !slices.Equal(got, want) {
			return 0, 0, fmt.Errorf("%s at %s: pruned best seed picks %v, unpruned %v",
				net.Name(), m.String(net), got, want)
		}
		arcs += len(want)
		for _, t := range want {
			next := net.EmptyMarking()
			if !net.FireInto(next, m, t) {
				return 0, 0, fmt.Errorf("%s is not safe", net.Name())
			}
			if k := next.Key(); !seen[k] {
				seen[k] = true
				stack = append(stack, next)
			}
		}
	}
	return len(seen), arcs, nil
}

// BenchmarkStubbornAllocs is the allocation gate of the reduced search
// (scripts/check.sh requires ≤ 2 allocs/state): the closure's member
// set, work list and enabled list are per-Explore scratch, frames live
// by value on one stack and their stubborn sets on one flat stack beside
// it, and markings are arena words of the visited store.
func BenchmarkStubbornAllocs(b *testing.B) {
	net := models.NSDP(7)
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	states := 0
	for i := 0; i < b.N; i++ {
		res, err := Explore(net, Options{Proviso: true})
		if err != nil {
			b.Fatal(err)
		}
		states += res.States
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(states), "allocs/state")
}
