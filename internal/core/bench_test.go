package core

import (
	"fmt"
	"testing"

	"repro/internal/family"
	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/zdd"
)

// analyzeBenchRows are the Table 1 instances the Analyze microbenchmarks
// cover: one row per family at a size where a single run stays well under
// a millisecond-to-tens-of-milliseconds, so `-benchtime=1x` smoke runs
// (scripts/check.sh) are cheap while `-benchtime=1s` gives stable
// allocs/op for perf iterations. nsdp(40) is the one large row: the
// benchmark's gpo workload runs it, and scripts/check.sh holds its MB/op
// (the arena and tables of one run) to a bound.
var analyzeBenchRows = []struct {
	family string
	size   int
}{
	{"nsdp", 4},
	{"nsdp", 8},
	{"nsdp", 40},
	{"asat", 4},
	{"over", 4},
	{"rw", 9},
}

// BenchmarkAnalyzeZDD measures one full generalized analysis per
// iteration — engine construction, r₀, exploration, witnesses — with the
// ZDD family algebra. The allocs/op column is the per-run allocation
// budget the hot-path work targets; States is constant per instance, so
// allocs/op comparisons across commits are per-state comparisons.
func BenchmarkAnalyzeZDD(b *testing.B) {
	for _, r := range analyzeBenchRows {
		net, err := models.ByName(r.family, r.size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s(%d)", r.family, r.size), func(b *testing.B) {
			benchAnalyze(b, net, func() (*Result, error) {
				e, err := NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
				if err != nil {
					return nil, err
				}
				res, _, err := e.Analyze(Options{})
				return res, err
			})
		})
	}
}

// BenchmarkAnalyzeExplicit is BenchmarkAnalyzeZDD with the explicit
// reference algebra, restricted to sizes where it is not exponential.
func BenchmarkAnalyzeExplicit(b *testing.B) {
	for _, r := range []struct {
		family string
		size   int
	}{{"nsdp", 4}, {"asat", 4}, {"over", 4}, {"rw", 9}} {
		net, err := models.ByName(r.family, r.size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s(%d)", r.family, r.size), func(b *testing.B) {
			benchAnalyze(b, net, func() (*Result, error) {
				e, err := NewEngine[*family.Family](net, family.NewAlgebra(net.NumTrans()))
				if err != nil {
					return nil, err
				}
				res, _, err := e.Analyze(Options{})
				return res, err
			})
		})
	}
}

// BenchmarkAnalyzeZDDSteadyState isolates the exploration hot path from
// the one-time costs: the engine and algebra are reused across
// iterations, so after the first iteration every node exists and the
// 1 MB op cache is warm — it holds the tail of the previous run, not a
// memo of all of it, so large rows recompute what the cache forgot — and
// allocs/op converges to the engine's true per-analysis floor (state
// interning plus successor records).
func BenchmarkAnalyzeZDDSteadyState(b *testing.B) {
	for _, r := range analyzeBenchRows {
		net, err := models.ByName(r.family, r.size)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s(%d)", r.family, r.size), func(b *testing.B) {
			e, err := NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
			if err != nil {
				b.Fatal(err)
			}
			var states int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, err := e.Analyze(Options{})
				if err != nil {
					b.Fatal(err)
				}
				states = res.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

func benchAnalyze(b *testing.B, net *petri.Net, run func() (*Result, error)) {
	b.Helper()
	var states int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
	_ = net
}
