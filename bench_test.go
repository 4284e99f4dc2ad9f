// Benchmarks regenerating the paper's evaluation: one benchmark family per
// Table 1 block (NSDP, ASAT, OVER, RW — each engine × size), one per
// figure sweep (Figures 1 and 2), and ablation benches for the design
// choices called out in DESIGN.md. Each benchmark reports the key
// size statistic (states, or peak BDD nodes) alongside wall time, so
// `go test -bench=.` prints the same rows the paper's Table 1 reports.
//
// cmd/gpobench prints the same data as a formatted table.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/unfold"
	"repro/internal/zdd"
)

// benchFull enumerates the complete state space (the States column).
func benchFull(b *testing.B, net *petri.Net) {
	b.Helper()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := reach.Explore(net, reach.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// benchPO runs stubborn-set reduction with the best-seed strategy and no
// proviso — the configuration whose reduction factors track the paper's
// SPIN+PO column most closely (see EXPERIMENTS.md; the proviso variant is
// measured by BenchmarkAblationProviso).
func benchPO(b *testing.B, net *petri.Net) {
	b.Helper()
	var states int
	for i := 0; i < b.N; i++ {
		res, err := stubborn.Explore(net, stubborn.Options{Seed: stubborn.SeedBest})
		if err != nil {
			b.Fatal(err)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// benchBDD runs symbolic reachability (the SMV column; metric = peak BDD).
func benchBDD(b *testing.B, net *petri.Net) {
	b.Helper()
	var peak int
	for i := 0; i < b.N; i++ {
		res, err := symbolic.Analyze(net, symbolic.Options{})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.PeakNodes
	}
	b.ReportMetric(float64(peak), "peakBDD")
}

// benchGPO runs the generalized partial-order analysis (the GPO column).
func benchGPO(b *testing.B, net *petri.Net) {
	b.Helper()
	var states int
	for i := 0; i < b.N; i++ {
		e, err := core.NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := e.Analyze(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// table1Block emits the four engine sub-benchmarks for one model instance.
func table1Block(b *testing.B, net *petri.Net, size int, full, bdd bool) {
	b.Helper()
	if full {
		b.Run(fmt.Sprintf("full/n=%d", size), func(b *testing.B) { benchFull(b, net) })
	}
	b.Run(fmt.Sprintf("po/n=%d", size), func(b *testing.B) { benchPO(b, net) })
	if bdd {
		b.Run(fmt.Sprintf("bdd/n=%d", size), func(b *testing.B) { benchBDD(b, net) })
	}
	b.Run(fmt.Sprintf("gpo/n=%d", size), func(b *testing.B) { benchGPO(b, net) })
}

// BenchmarkTable1NSDP regenerates the NSDP rows of Table 1.
// Paper: full 18/322/5778/103682/1.86e6, SPIN+PO 12/110/1422/19270/239308,
// SMV peak 1068/10018/52320/687263/>24h, GPO 3/3/3/3/3.
func BenchmarkTable1NSDP(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8, 10} {
		net := models.NSDP(n)
		// The full sweep at n=10 (1.86M states) and symbolic beyond n=6
		// are too slow to repeat under -benchtime; gpobench runs them once.
		table1Block(b, net, n, n <= 8, n <= 6)
	}
}

// BenchmarkTable1ASAT regenerates the ASAT rows of Table 1.
// Paper: full 88/7822/1.58e6, SPIN+PO 33/192/3598, SMV 1587/117667/>24h,
// GPO 8/14/23.
func BenchmarkTable1ASAT(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		net := models.ArbiterTree(n)
		table1Block(b, net, n, n <= 4, n <= 4)
	}
}

// BenchmarkTable1OVER regenerates the OVER rows of Table 1.
// Paper: full 65/519/4175/33460, SPIN+PO 28/107/467/2059,
// SMV 3511/10203/11759/24860, GPO 6/7/8/9.
func BenchmarkTable1OVER(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		net := models.Overtake(n)
		table1Block(b, net, n, true, n <= 4)
	}
}

// BenchmarkTable1RW regenerates the RW rows of Table 1.
// Paper: full = SPIN+PO = 72/523/4110/29642 (no reduction),
// SMV 3689/9886/10037/10267, GPO 2/2/2/2.
func BenchmarkTable1RW(b *testing.B) {
	for _, n := range []int{6, 9, 12, 15} {
		net := models.ReadersWriters(n)
		table1Block(b, net, n, n <= 12, n <= 9)
	}
}

// benchUnfold builds the McMillan prefix and runs its deadlock check (our
// extension engine; metric = prefix events).
func benchUnfold(b *testing.B, net *petri.Net) {
	b.Helper()
	var events int
	for i := 0; i < b.N; i++ {
		px, err := unfold.Build(net, unfold.Options{})
		if err != nil {
			b.Fatal(err)
		}
		px.FindDeadlock()
		events = len(px.Events)
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkFig1 regenerates the Figure 1 sweep: n independent transitions;
// full = 2^n states, partial order = n+1, unfolding prefix = n events,
// GPO = 2 states.
func BenchmarkFig1(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		net := models.Fig1(n)
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) { benchFull(b, net) })
		b.Run(fmt.Sprintf("po/n=%d", n), func(b *testing.B) { benchPO(b, net) })
		b.Run(fmt.Sprintf("unfold/n=%d", n), func(b *testing.B) { benchUnfold(b, net) })
		b.Run(fmt.Sprintf("gpo/n=%d", n), func(b *testing.B) { benchGPO(b, net) })
	}
}

// BenchmarkFig2 regenerates the Figure 2 sweep: n concurrently marked
// conflict pairs; full = 3^n, partial order = 2^(n+1)−1, unfolding = 2n
// events, GPO = 2 states.
func BenchmarkFig2(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		net := models.Fig2(n)
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) { benchFull(b, net) })
		b.Run(fmt.Sprintf("po/n=%d", n), func(b *testing.B) { benchPO(b, net) })
		b.Run(fmt.Sprintf("unfold/n=%d", n), func(b *testing.B) { benchUnfold(b, net) })
		b.Run(fmt.Sprintf("gpo/n=%d", n), func(b *testing.B) { benchGPO(b, net) })
	}
}

// BenchmarkGPOScalingNSDP exercises Section 4's scaling claim: GPO time
// grows roughly linearly in the philosopher count (the state count is a
// constant 3) even as |r₀| grows exponentially.
func BenchmarkGPOScalingNSDP(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		net := models.NSDP(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchGPO(b, net) })
	}
}

// BenchmarkAblationFamilyAlgebra compares the two family representations
// of the GPO engine on the same net (DESIGN.md D1): ZDD vs explicit.
func BenchmarkAblationFamilyAlgebra(b *testing.B) {
	net := models.NSDP(6)
	b.Run("zdd", func(b *testing.B) { benchGPO(b, net) })
	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.NewEngine[*family.Family](net, family.NewAlgebra(net.NumTrans()))
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := e.Analyze(core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStubbornSeed compares the served seed policy
// (stubborn.SeedDefault) with best seed, with and without the cycle
// proviso. Served is best seed without the proviso and first seed with
// it; EXPERIMENTS.md cites the state counts.
func BenchmarkAblationStubbornSeed(b *testing.B) {
	seeds := []struct {
		name string
		seed stubborn.SeedStrategy
	}{{"served", stubborn.SeedDefault}, {"best", stubborn.SeedBest}}
	for _, net := range []*petri.Net{models.NSDP(6), models.ArbiterTree(8)} {
		for _, s := range seeds {
			for _, prov := range []bool{false, true} {
				name := net.Name() + "/" + s.name
				if prov {
					name += "+proviso"
				}
				b.Run(name, func(b *testing.B) {
					var states int
					for i := 0; i < b.N; i++ {
						res, err := stubborn.Explore(net, stubborn.Options{Seed: s.seed, Proviso: prov})
						if err != nil {
							b.Fatal(err)
						}
						states = res.States
					}
					b.ReportMetric(float64(states), "states")
				})
			}
		}
	}
}

// BenchmarkAblationProviso measures the cost of the cycle proviso in the
// partial-order engine (it is what removes all reduction on RW).
func BenchmarkAblationProviso(b *testing.B) {
	net := models.ReadersWriters(9)
	for name, prov := range map[string]bool{"with": true, "without": false} {
		b.Run(name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				res, err := stubborn.Explore(net, stubborn.Options{Proviso: prov})
				if err != nil {
					b.Fatal(err)
				}
				states = res.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}
