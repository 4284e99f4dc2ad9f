package core

import (
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/obs/trace"
	"repro/internal/zdd"
)

// TestAnalyzeDisabledTracerZeroAlloc pins the cost of the disabled
// flight recorder on the analysis hot path: the engine's track field is
// nil until a tracer is attached, and every nil-track emit the per-state
// code performs must stay allocation-free (see Options.Trace), as must
// the unmetered node meter.
func TestAnalyzeDisabledTracerZeroAlloc(t *testing.T) {
	net, err := models.ByName("nsdp", 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
	if err != nil {
		t.Fatal(err)
	}
	if e.tk != nil {
		t.Fatal("fresh engine has a non-nil trace track")
	}
	allocs := testing.AllocsPerRun(100, func() {
		// The exact emit mix of one interned state with a multiple
		// firing, as Analyze performs it, and the node meter's sites.
		e.enter("s_enabled")
		e.enter("multi_place")
		e.tk.State(1, 3)
		e.tk.Conflict(2, 1)
		e.tk.MultiFire(2, 7)
		e.tk.Fire(0, 7)
		e.tk.Fire(1, 7)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer emits allocate %.1f per state, want 0", allocs)
	}
}

// TestAnalyzeTracingIsPassive pins that attaching a tracer never
// changes what the engine computes: the full Result of a traced run is
// identical to the untraced one, and the recorded events alone
// reconstruct the state count (what cmd/gpotrace prints).
func TestAnalyzeTracingIsPassive(t *testing.T) {
	for _, r := range []struct {
		family string
		size   int
	}{{"nsdp", 6}, {"over", 4}, {"rw", 9}} {
		net, err := models.ByName(r.family, r.size)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := plain.Analyze(Options{})
		if err != nil {
			t.Fatal(err)
		}

		traced, err := NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(trace.Options{})
		res, _, err := traced.Analyze(Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("%s(%d): traced result differs:\n  base   %+v\n  traced %+v",
				r.family, r.size, base, res)
		}

		sum := trace.Summarize(tr.Dump(), 5)
		if sum.States != res.States {
			t.Errorf("%s(%d): trace reconstructs %d states, engine explored %d",
				r.family, r.size, sum.States, res.States)
		}
		// One fire event per fired transition: singles contribute one
		// each, every multiple-firing step at least two.
		if min := res.SingleFirings + 2*res.MultiFirings; sum.Fires < min {
			t.Errorf("%s(%d): trace reconstructs %d firings, engine took at least %d",
				r.family, r.size, sum.Fires, min)
		}
		if sum.MultiFires != res.MultiFirings {
			t.Errorf("%s(%d): trace reconstructs %d multifires, engine took %d",
				r.family, r.size, sum.MultiFires, res.MultiFirings)
		}
	}
}

// BenchmarkDisabledTraceHotPath is the gate scripts/check.sh asserts at
// 0 allocs/op: the per-state instrumentation mix with tracing disabled,
// measured on the engine's real (nil) track field.
func BenchmarkDisabledTraceHotPath(b *testing.B) {
	net, err := models.ByName("nsdp", 4)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine[zdd.Node](net, zdd.NewAlgebra(net.NumTrans()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.enter("s_enabled")
		e.enter("multi_place")
		e.tk.State(int64(i), 3)
		e.tk.Conflict(2, 1)
		e.tk.MultiFire(2, int64(i))
		e.tk.Fire(0, int64(i))
		e.tk.Fire(1, int64(i))
	}
}
