package unfold

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
	"repro/internal/reach"
)

// TestFig1PrefixLinear checks the defining advantage of unfoldings: the
// prefix of n independent transitions has exactly n events — concurrency
// does not multiply anything (the reachability graph has 2^n states).
func TestFig1PrefixLinear(t *testing.T) {
	for n := 1; n <= 10; n++ {
		px, err := Build(models.Fig1(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(px.Events) != n {
			t.Errorf("Fig1(%d): %d events, want %d", n, len(px.Events), n)
		}
		if px.CutoffCnt != 0 {
			t.Errorf("Fig1(%d): %d cutoffs, want 0 (acyclic net)", n, px.CutoffCnt)
		}
	}
}

// TestFig2PrefixBranches checks the complementary weakness the paper's
// generalized analysis removes: conflicts still branch, so the Fig2 prefix
// has 2n events (one per A_i/B_i), not a collapsed representation — yet
// far fewer than the 3^n markings.
func TestFig2PrefixBranches(t *testing.T) {
	for n := 1; n <= 8; n++ {
		px, err := Build(models.Fig2(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(px.Events) != 2*n {
			t.Errorf("Fig2(%d): %d events, want %d", n, len(px.Events), 2*n)
		}
	}
}

// TestDeadlockAgreement cross-validates the prefix deadlock check against
// exhaustive reachability on the models and random nets.
func TestDeadlockAgreement(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(3),
		models.Fig1(4), models.Fig2(3), models.Fig3(), models.Fig5(), models.Fig7(),
		models.ReadersWriters(2), models.ReadersWriters(3),
		models.ArbiterTree(2), models.Overtake(2),
	}
	for seed := int64(0); seed < 40; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	for _, net := range nets {
		full, err := reach.Explore(net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		px, err := Build(net, Options{MaxEvents: 20000})
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		witness, dead := px.FindDeadlock()
		if dead != full.Deadlock {
			t.Errorf("%s: prefix deadlock=%v, exhaustive=%v (events=%d)",
				net.Name(), dead, full.Deadlock, len(px.Events))
			continue
		}
		if dead {
			found := false
			for _, m := range full.Deadlocks {
				if m.Equal(witness) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: prefix witness %s is not a real deadlock",
					net.Name(), witness.String(net))
			}
		}
	}
}

// TestMarkCoverage checks prefix completeness on small nets: the set of
// markings visited by the cut walk equals the reachable set.
func TestMarkCoverage(t *testing.T) {
	nets := []*petri.Net{
		models.Fig2(3), models.Fig3(), models.Fig7(),
		models.ReadersWriters(2), models.NSDP(2),
	}
	for _, net := range nets {
		full, err := reach.Explore(net, reach.Options{StoreGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		reachable := make(map[string]bool)
		for _, m := range full.Graph.States {
			reachable[m.Key()] = true
		}
		px, err := Build(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		covered := coveredMarkings(px)
		for k := range reachable {
			if !covered[k] {
				t.Errorf("%s: a reachable marking is not covered by the prefix", net.Name())
				break
			}
		}
		for k := range covered {
			if !reachable[k] {
				t.Errorf("%s: prefix covers an unreachable marking", net.Name())
				break
			}
		}
	}
}

// coveredMarkings walks all cutoff-free configurations (same walk as
// FindDeadlock) and collects the cut markings.
func coveredMarkings(px *Prefix) map[string]bool {
	out := make(map[string]bool)
	type cutT = map[int]*Cond
	start := cutT{}
	for _, c := range px.InitialCut {
		start[c.ID] = c
	}
	markKey := func(c cutT) string {
		m := px.Net.EmptyMarking()
		for _, cond := range c {
			m.Set(cond.Place)
		}
		return m.Key()
	}
	cutKey := func(c cutT) string {
		// Distinct cuts may share a marking, so key on condition ids.
		ids := make([]int, 0, len(c))
		for id := range c {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var b strings.Builder
		for _, id := range ids {
			b.WriteString(strconv.Itoa(id))
			b.WriteByte(',')
		}
		return b.String()
	}
	seen := map[string]bool{cutKey(start): true}
	stack := []cutT{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out[markKey(cur)] = true
		for _, e := range px.Events {
			if e.Cutoff {
				continue
			}
			ok := true
			for _, p := range e.Pre {
				if _, in := cur[p.ID]; !in {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			next := cutT{}
			for id, c := range cur {
				next[id] = c
			}
			for _, c := range e.Pre {
				delete(next, c.ID)
			}
			for _, c := range e.Post {
				next[c.ID] = c
			}
			k := cutKey(next)
			if !seen[k] {
				seen[k] = true
				stack = append(stack, next)
			}
		}
	}
	return out
}

// TestEventLimit checks the guard.
func TestEventLimit(t *testing.T) {
	_, err := Build(models.NSDP(4), Options{MaxEvents: 5})
	if !errors.Is(err, ErrEventLimit) {
		t.Errorf("got %v, want ErrEventLimit", err)
	}
}

// TestPrefixStats spot-checks statistics and records the comparison the
// package documentation makes: unfoldings beat interleavings (Fig1) but
// still branch on conflicts (Fig2), which GPO collapses.
func TestPrefixStats(t *testing.T) {
	px, err := Build(models.ReadersWriters(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := px.Stats()
	if s.Events == 0 || s.Conditions == 0 {
		t.Fatal("empty stats")
	}
	if s.Events != len(px.Events) || s.Cutoffs != px.CutoffCnt {
		t.Error("stats disagree with prefix")
	}
	t.Logf("RW(3): %d events, %d conditions, %d cutoffs", s.Events, s.Conditions, s.Cutoffs)
}

// TestSelfLoopCutoff checks that Size counts e itself: the one event of
// t: p → p has |[t]| = 1 and reaches the initial marking, whose empty
// configuration has size 0, so it is a cutoff and the prefix ends there.
func TestSelfLoopCutoff(t *testing.T) {
	b := petri.NewBuilder("selfloop")
	p := b.Place("p")
	b.Mark(p)
	b.TransArcs("t", []petri.Place{p}, []petri.Place{p})
	px, err := Build(b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(px.Events) != 1 || px.CutoffCnt != 1 {
		t.Fatalf("%d events, %d cutoffs, want 1 and 1", len(px.Events), px.CutoffCnt)
	}
	if got := px.Events[0].Size(); got != 1 {
		t.Errorf("Size() = %d, want |[t]| = 1", got)
	}
}
