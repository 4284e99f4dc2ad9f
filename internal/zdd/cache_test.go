package zdd

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/randnet"
)

// clampCache caps the op cache of every manager the test creates.
func clampCache(t *testing.T, slots int) {
	old := cacheCap
	cacheCap = slots
	t.Cleanup(func() { cacheCap = old })
}

// gpoRun is everything of one generalized analysis that a node id could
// leak into: the result, the arena size and the snapshot bytes of every
// interned state's families.
type gpoRun struct {
	res   *core.Result
	nodes int
	blob  []byte
	stats Stats
	grows []int // op-cache sizes reported through GrowHook
}

func runGPO(t *testing.T, net *petri.Net, opts core.Options) gpoRun {
	t.Helper()
	alg := NewAlgebra(net.NumTrans())
	var grows []int
	alg.Manager().GrowHook = func(table string, slots int) {
		if table == "memo" {
			grows = append(grows, slots)
		}
	}
	e, err := core.NewEngine[Node](net, alg)
	if err != nil {
		t.Fatal(err)
	}
	opts.StoreGraph = true
	res, g, err := e.Analyze(opts)
	if err != nil && err != core.ErrStateLimit {
		t.Fatalf("%s: %v", net.Name(), err)
	}
	var roots []Node
	for _, s := range g.States {
		roots = append(append(roots, s.M...), s.R)
	}
	return gpoRun{res, alg.Manager().Size(), alg.EncodeFamilies(roots), alg.Manager().Stats(), grows}
}

// TestCacheLossIsInvisible is the determinism argument of the lossy op
// cache as a predicate: with the cache clamped to 16 slots and to a
// single one, so that nearly every lookup misses, the Table 1 instances
// of core's TestPinnedTable1 and the seeded random nets of its
// family-vs-zdd differential give the same Result, allocate the same
// number of nodes and snapshot to the same bytes as at the default size.
func TestCacheLossIsInvisible(t *testing.T) {
	type instance struct {
		net  *petri.Net
		opts core.Options
	}
	var insts []instance
	for _, fam := range []struct {
		name  string
		sizes []int
	}{{"nsdp", []int{2, 4, 6, 8, 10}}, {"asat", []int{2, 4, 8}}, {"over", []int{2, 3, 4, 5}}, {"rw", []int{6, 9, 12, 15}}} {
		for _, size := range fam.sizes {
			net, err := models.ByName(fam.name, size)
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, instance{net, core.Options{}})
		}
	}
	cfgs := []randnet.Config{
		{Machines: 4, PlacesPer: 3, LocalTrans: 2, SyncTrans: 4, Seed: 101},
		{Machines: 2, PlacesPer: 5, LocalTrans: 3, SyncTrans: 2, Seed: 102},
		{Machines: 5, PlacesPer: 2, LocalTrans: 1, SyncTrans: 5, Seed: 103},
		{Machines: 3, PlacesPer: 4, LocalTrans: 2, SyncTrans: 6, Seed: 104},
	}
	for seed := int64(1); seed <= 12; seed++ {
		cfgs = append(cfgs, randnet.Default(seed))
	}
	for _, cfg := range cfgs {
		insts = append(insts, instance{randnet.Generate(cfg), core.Options{WitnessLimit: 4, MaxStates: 3000}})
	}

	want := make([]gpoRun, len(insts))
	for i, in := range insts {
		want[i] = runGPO(t, in.net, in.opts)
	}
	for _, slots := range []int{16, 1} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			clampCache(t, slots)
			var extra int64
			for i, in := range insts {
				got := runGPO(t, in.net, in.opts)
				if got.stats.MemoSlots > slots {
					t.Fatalf("%s: clamp ignored, %d slots", in.net.Name(), got.stats.MemoSlots)
				}
				extra += got.stats.MemoMisses - want[i].stats.MemoMisses
				if !reflect.DeepEqual(got.res, want[i].res) {
					t.Errorf("%s: result %+v, want %+v", in.net.Name(), got.res, want[i].res)
				}
				if got.nodes != want[i].nodes {
					t.Errorf("%s: %d nodes, want %d", in.net.Name(), got.nodes, want[i].nodes)
				}
				if !bytes.Equal(got.blob, want[i].blob) {
					t.Errorf("%s: snapshot bytes differ from the default cache's", in.net.Name())
				}
			}
			if extra <= 0 {
				t.Errorf("clamped runs missed no more often than the default: the clamp lost nothing")
			}
		})
	}
}

// TestTableManagementCounts pins, as exact program counts and not as
// timings, what keeps the analysis off table upkeep: r₀'s BDD is built
// in an order that creates a number of nodes linear in the net (272 486
// at nsdp(40) and 4.1× that at nsdp(80) when conjoined first to last),
// and the capped op cache costs about 1 % more misses than a lossless one
// (779 764 at nsdp(40)). The miss pins guard the cap against a "smaller
// is cheaper" edit: nsdp(40) trips below 1<<10, asat(32) — 456 758 misses
// at the cap, 643 476 at 1<<14, 2 111 246 and four times the time at 1<<12 —
// trips at once.
func TestTableManagementCounts(t *testing.T) {
	r0Nodes := func(size int) int {
		net := models.NSDP(size)
		bm := bdd.NewManager(net.NumTrans())
		conflictFreeBDD(bm, func(i, j int) bool { return net.Conflict(petri.Trans(i), petri.Trans(j)) })
		return bm.Size()
	}
	n40, n80 := r0Nodes(40), r0Nodes(80)
	if n40 > 12_000 || float64(n80) >= 2.5*float64(n40) {
		t.Errorf("r₀ BDD nodes created: %d at nsdp(40), %d at nsdp(80); want ≤ 12000 and a ratio < 2.5", n40, n80)
	}
	run := runGPO(t, models.NSDP(40), core.Options{})
	if float64(run.stats.MemoMisses) > 1.05*779_764 {
		t.Errorf("nsdp(40): %d op-cache misses, want ≤ 1.05 × 779764", run.stats.MemoMisses)
	}
	if want := []int{1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16}; !reflect.DeepEqual(run.grows, want) {
		t.Errorf("nsdp(40): GrowHook saw the op cache at %v slots, want each doubling up to the cap %v", run.grows, want)
	}
	asat, err := models.ByName("asat", 32)
	if err != nil {
		t.Fatal(err)
	}
	if st := runGPO(t, asat, core.Options{}).stats; st.MemoMisses > 500_000 {
		t.Errorf("asat(32): %d op-cache misses, want ≤ 500000", st.MemoMisses)
	}
	if testing.Short() {
		return
	}
	if st := runGPO(t, models.NSDP(80), core.Options{}).stats; st.MemoSlots > 65_536 {
		t.Errorf("nsdp(80): op cache grew to %d slots, want ≤ 65536 (1 MB)", st.MemoSlots)
	}
}
