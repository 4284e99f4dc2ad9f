package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/zdd"
)

func analyzeZDD(t *testing.T, n *petri.Net, opts Options) *Result {
	t.Helper()
	e, err := NewEngine[zdd.Node](n, zdd.NewAlgebra(n.NumTrans()))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := e.Analyze(opts)
	if err != nil {
		t.Fatalf("%s: %v", n.Name(), err)
	}
	return res
}

// TestZDDMatchesExplicitAlgebra checks that both family representations
// drive the analysis to identical results on every model.
func TestZDDMatchesExplicitAlgebra(t *testing.T) {
	nets := []*petri.Net{
		models.NSDP(2), models.NSDP(4),
		models.Fig1(4), models.Fig2(4), models.Fig3(), models.Fig7(),
		models.ReadersWriters(4), models.ArbiterTree(4), models.Overtake(3),
	}
	for _, net := range nets {
		ex := analyzeExplicit(t, net, Options{})
		zd := analyzeZDD(t, net, Options{})
		if ex.States != zd.States || ex.Deadlock != zd.Deadlock ||
			ex.Arcs != zd.Arcs || ex.PeakValid != zd.PeakValid {
			t.Errorf("%s: explicit (states=%d arcs=%d dl=%v peak=%v) != zdd (states=%d arcs=%d dl=%v peak=%v)",
				net.Name(), ex.States, ex.Arcs, ex.Deadlock, ex.PeakValid,
				zd.States, zd.Arcs, zd.Deadlock, zd.PeakValid)
		}
	}
}

// TestZDDNSDPLargeScale checks the paper's headline scaling claim at the
// sizes the explicit representation cannot touch: NSDP(8), NSDP(10) and
// beyond still take exactly 3 states, find the deadlock, and finish fast
// ("CPU times increase linearly with problem size", Section 4).
func TestZDDNSDPLargeScale(t *testing.T) {
	for _, n := range []int{8, 10, 16, 24} {
		start := time.Now()
		res := analyzeZDD(t, models.NSDP(n), Options{})
		elapsed := time.Since(start)
		if !res.Deadlock {
			t.Errorf("NSDP(%d): deadlock not found", n)
		}
		if res.States != 3 {
			t.Errorf("NSDP(%d): %d states, paper reports 3", n, res.States)
		}
		if elapsed > 10*time.Second {
			t.Errorf("NSDP(%d): took %v; the analysis should stay near-linear", n, elapsed)
		}
		t.Logf("NSDP(%d): states=%d |r| peak=%v time=%v", n, res.States, res.PeakValid, elapsed)
	}
}

// TestZDDFig2LargeScale scales the Figure 2 net to sizes where the valid
// sets number 2^40: the analysis must still need exactly 2 states.
func TestZDDFig2LargeScale(t *testing.T) {
	for _, n := range []int{10, 20, 40} {
		res := analyzeZDD(t, models.Fig2(n), Options{})
		if res.States != 2 {
			t.Errorf("Fig2(%d): %d states, want 2", n, res.States)
		}
		if want := float64(int64(1) << n); res.PeakValid != want {
			t.Errorf("Fig2(%d): peak |r| = %v, want 2^%d = %v", n, res.PeakValid, n, want)
		}
	}
}

// TestZDDRWLargeScale checks RW stays at 2 states at paper sizes and above.
func TestZDDRWLargeScale(t *testing.T) {
	for _, n := range []int{6, 9, 12, 15, 20} {
		res := analyzeZDD(t, models.ReadersWriters(n), Options{})
		if res.Deadlock {
			t.Errorf("RW(%d): spurious deadlock", n)
		}
		if res.States != 2 {
			t.Errorf("RW(%d): %d states, paper reports 2", n, res.States)
		}
	}
}

// TestZDDASATScale checks the arbiter tree at the paper's largest size.
func TestZDDASATScale(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		res := analyzeZDD(t, models.ArbiterTree(n), Options{})
		if res.Deadlock {
			t.Errorf("ASAT(%d): spurious deadlock", n)
		}
		t.Logf("ASAT(%d): GPO states=%d", n, res.States)
	}
}

// TestZDDOvertakeScale checks OVER at and beyond the paper's sizes.
func TestZDDOvertakeScale(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		res := analyzeZDD(t, models.Overtake(n), Options{})
		if res.Deadlock {
			t.Errorf("OVER(%d): spurious deadlock", n)
		}
		t.Logf("OVER(%d): GPO states=%d", n, res.States)
	}
}

// TestValidSetMetricsSaturate pins the integer surfaces of the valid-set
// count where it no longer fits one: |r₀| of NSDP(40) is 7.5·10²², and
// core.peak_valid used to read 0 and core.valid_sets −2⁶³ there.
// Result.PeakValid stays the exact float.
func TestValidSetMetricsSaturate(t *testing.T) {
	reg := obs.New()
	res := analyzeZDD(t, models.NSDP(40), Options{Metrics: reg})
	if res.PeakValid < 7.5e22 || res.PeakValid > 7.6e22 {
		t.Errorf("PeakValid = %g, want ≈ 7.549e22", res.PeakValid)
	}
	if got := reg.Gauge("core.peak_valid").Value(); got != math.MaxInt64 {
		t.Errorf("core.peak_valid = %d, want saturation at %d", got, int64(math.MaxInt64))
	}
	h := reg.Histogram("core.valid_sets")
	if h.Min() <= 0 || h.Max() != math.MaxInt64 {
		t.Errorf("core.valid_sets min/max = %d/%d, want positive and saturated", h.Min(), h.Max())
	}
	if got := satInt64(1 << 40); got != 1<<40 {
		t.Errorf("satInt64(2^40) = %d: counts below 2^63 must pass through", got)
	}
}

// nodeSites lists Analyze's node-meter sites.
var nodeSites = []string{"r0", "s_enabled", "dead", "m_enabled", "multi_r", "multi_place",
	"multi_restrict", "post_check", "single_fire", "proviso"}

// TestNodeSitesPinned pins what each of Analyze's sites creates
// (core.nodes.<site>) on nsdp(40), asat(32) and the paper's Figure 7 net:
// the sites add up to the nodes the run created, and metering them
// changes neither the Result nor a single operation of the manager.
func TestNodeSitesPinned(t *testing.T) {
	for _, c := range []struct {
		family string
		size   int
		want   []int64 // by nodeSites
	}{
		{"nsdp", 40, []int64{396, 28705, 7500, 12171, 9186, 24188, 6297, 0, 0, 0}},
		{"asat", 32, []int64{284, 8038, 3227, 22796, 8877, 36991, 109477, 0, 0, 0}},
		{"fig7", 0, []int64{4, 0, 0, 4, 1, 4, 0, 0, 0, 0}},
	} {
		net, err := models.ByName(c.family, c.size)
		if err != nil {
			t.Fatal(err)
		}
		var res [2]*Result
		var st [2]zdd.Stats
		reg := obs.New()
		for i, m := range []*obs.Registry{nil, reg} {
			alg := zdd.NewAlgebra(net.NumTrans())
			e, err := NewEngine[zdd.Node](net, alg)
			if err != nil {
				t.Fatal(err)
			}
			if res[i], _, err = e.Analyze(Options{Metrics: m}); err != nil {
				t.Fatal(err)
			}
			st[i] = alg.Manager().Stats()
		}
		if !reflect.DeepEqual(res[0], res[1]) || st[0] != st[1] {
			t.Errorf("%s(%d): metering changed the run:\n  %+v %+v\n  %+v %+v", c.family, c.size, res[0], st[0], res[1], st[1])
		}
		gauges := reg.Snapshot().Gauges
		var got []int64
		sum := int64(0)
		for name, v := range gauges {
			if site, ok := strings.CutPrefix(name, "core.nodes."); ok {
				sum += v
				if !slices.Contains(nodeSites, site) {
					t.Errorf("%s(%d): unlisted site %s", c.family, c.size, name)
				}
			}
		}
		for _, site := range nodeSites {
			got = append(got, gauges["core.nodes."+site])
		}
		if sum != int64(st[1].Nodes-2) {
			t.Errorf("%s(%d): the sites created %d nodes, the run %d", c.family, c.size, sum, st[1].Nodes-2)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s(%d): core.nodes.* = %v, want %v", c.family, c.size, got, c.want)
		}
	}
}
