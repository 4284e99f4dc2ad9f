package reduce_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/randnet"
	"repro/internal/structural/reduce"
)

// netSnapshot is everything of a net that Run could write through the
// lists it reads: the canonical text, every adjacency list and the
// initial marking.
type netSnapshot struct {
	text             []byte
	pre, post        [][]petri.Place
	preT, postT      [][]petri.Trans
	initial, initMrk []byte
}

func snapshot(t *testing.T, n *petri.Net) netSnapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := pnio.Write(&buf, n); err != nil {
		t.Fatal(err)
	}
	s := netSnapshot{
		text:    buf.Bytes(),
		initial: fmt.Append(nil, n.InitialPlaces()),
		initMrk: fmt.Append(nil, []uint64(n.InitialMarking())),
	}
	for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
		s.pre = append(s.pre, slices.Clone(n.Pre(tr)))
		s.post = append(s.post, slices.Clone(n.Post(tr)))
	}
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		s.preT = append(s.preT, slices.Clone(n.PreT(p)))
		s.postT = append(s.postT, slices.Clone(n.PostT(p)))
	}
	return s
}

func (s netSnapshot) diff(o netSnapshot) string {
	switch {
	case !bytes.Equal(s.text, o.text):
		return "its text"
	case !slices.EqualFunc(s.pre, o.pre, slices.Equal) || !slices.EqualFunc(s.post, o.post, slices.Equal):
		return "a transition's preset or postset"
	case !slices.EqualFunc(s.preT, o.preT, slices.Equal) || !slices.EqualFunc(s.postT, o.postT, slices.Equal):
		return "a place's producers or consumers"
	case !bytes.Equal(s.initial, o.initial) || !bytes.Equal(s.initMrk, o.initMrk):
		return "its initial marking"
	}
	return ""
}

// TestRunLeavesInputUnchanged: the rules edit the working copy in place,
// so a working list that aliased one of the input net's would corrupt a
// net every other engine and cache entry shares. On the golden corpus and
// 200 random nets, the input reads the same after Run as before.
func TestRunLeavesInputUnchanged(t *testing.T) {
	corpus := goldenCorpus(t)
	for seed := int64(1); seed <= 200; seed++ {
		corpus = append(corpus, goldenNet{name: fmt.Sprintf("rand(%d)", seed), net: randnet.Generate(randnet.Default(seed))})
	}
	for _, g := range corpus {
		before := snapshot(t, g.net)
		if _, err := reduce.Run(g.net, reduce.Options{Protect: g.protect}); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if what := before.diff(snapshot(t, g.net)); what != "" {
			t.Errorf("%s: Run changed %s", g.name, what)
		}
	}
}

// TestRunAllocationsPinned pins the pre-pass's cost model on every net
// the benchmark's table1-reduce workload reduces: the working copy lives
// in arenas allocated once and the reduced net is assembled once, so a
// run makes the same few allocations whether one rule applies or a
// hundred (asat(32) makes 127 agglomerations). A rule that allocates per
// application, or a return to one Builder call per arc, breaks the bound.
func TestRunAllocationsPinned(t *testing.T) {
	const maxAllocs = 48
	counts := make(map[float64][]string)
	for _, fam := range []struct {
		name  string
		sizes []int
	}{
		{"nsdp", []int{2, 4, 6, 8, 40}},
		{"asat", []int{2, 4, 8, 32}},
		{"over", []int{2, 3, 4, 5, 8}},
		{"rw", []int{6, 9, 12, 15, 30}},
	} {
		for _, size := range fam.sizes {
			net, err := models.ByName(fam.name, size)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s(%d)", fam.name, size)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := reduce.Run(net, reduce.Options{}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			})
			if allocs > maxAllocs {
				t.Errorf("%s: reduce.Run makes %.0f allocations, want at most %d", name, allocs, maxAllocs)
			}
			counts[allocs] = append(counts[allocs], name)
		}
	}
	if len(counts) != 1 {
		t.Errorf("allocations depend on the net (allocations: nets): %v", counts)
	}
}
