package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/petri"
)

// The self-test runs every workload at -short size (tiny instances, one
// round) and checks the driver, not the verifier's speed: names, the
// BENCHMARK.json contract, repeatable counts, and that a wrong reference
// fails the run.

func shortRun(t *testing.T, name string, trace bool, exp *expectedFile) *report {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	rep, err := runWorkload(w, runConfig{seed: 1, trace: trace, short: true}, exp, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

func mustExpected(t *testing.T) *expectedFile {
	t.Helper()
	exp, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestSpecAgreesWithBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSpec(spec, workloads()); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 7 {
		t.Errorf("%d workloads, want 7", len(spec.Workloads))
	}
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
	}
	// A drifted file is refused.
	spec.PerLayer = spec.PerLayer[1:]
	spec.Workloads[0].Name = "renamed"
	err = checkSpec(spec, workloads())
	if err == nil || !strings.Contains(err.Error(), "petri.fire_ns") || !strings.Contains(err.Error(), "renamed") {
		t.Errorf("checkSpec on a drifted file = %v, want both differences named", err)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	exp := mustExpected(t)
	for _, name := range allWorkloads {
		rep := shortRun(t, name, false, exp)
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v", name, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
		}
		for _, m := range endToEnd {
			if v, ok := rep.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", name, m.Name, v, m.Unit)
			}
		}
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, want %d", name, len(rep.Metrics), len(endToEnd))
		}

		traced := shortRun(t, name, true, exp)
		if !traced.Correct {
			t.Errorf("%s traced: %v", name, traced.Problems)
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, want %d", name, len(traced.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			v, ok := traced.Metrics[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v", name, m.Name, v)
				continue
			}
			on := false
			for _, w := range m.On {
				on = on || w == name
			}
			// A layer listed as idle on this workload must read 0; the
			// reverse does not hold (a count can legitimately be 0).
			if !on && v.Value != 0 {
				t.Errorf("%s: %s = %v, but the layer is declared idle on this workload", name, m.Name, v.Value)
			}
		}
	}
}

func TestCountsRepeat(t *testing.T) {
	exp := mustExpected(t)
	a := shortRun(t, wSeq, true, exp)
	b := shortRun(t, wSeq, true, exp)
	for _, name := range []string{"reach.arcs_per_state", "reach.queue_peak", "stubborn.reduction_ratio", "stubborn.proviso_expansions"} {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v, want identical and non-zero", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	x, y := a.Metrics["reach.seq.allocs_per_state"].Value, b.Metrics["reach.seq.allocs_per_state"].Value
	if x == 0 || math.Abs(x-y)/x > 0.01 {
		t.Errorf("reach.seq.allocs_per_state: %v then %v, want within 1%%", x, y)
	}
	g1, g2 := shortRun(t, wGPO, true, exp), shortRun(t, wGPO, true, exp)
	for _, name := range []string{"core.multi_firings", "zdd.peak_nodes"} {
		if g1.Metrics[name].Value != g2.Metrics[name].Value || g1.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v, want identical and non-zero", name, g1.Metrics[name].Value, g2.Metrics[name].Value)
		}
	}
}

func TestWrongExpectedEntryFailsTheRun(t *testing.T) {
	// A wrong pinned count: every operation of that class fails its check.
	exp := mustExpected(t)
	exp.States["nsdp(*)/gpo"] = 4
	rep := shortRun(t, wGPO, false, exp)
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("corrupted count: correct=%v failed=%d, want a failed run", rep.Correct, rep.Failed)
	}
	if len(rep.Problems) == 0 || !strings.Contains(rep.Problems[0], "states=3, want 4") {
		t.Errorf("problems = %v", rep.Problems)
	}
	// A wrong family verdict: the oracle contradicts it during set-up.
	exp = mustExpected(t)
	exp.Deadlock["rw"] = true
	if _, err := runWorkload(findWorkload(wSeq), runConfig{seed: 1, short: true}, exp, t.TempDir()); err == nil {
		t.Error("a flipped family verdict passed set-up")
	}
}

func TestOracle(t *testing.T) {
	// p0 -> t0 -> p1 -> t1 -> p2, then stuck: 3 states, deadlock in {p2}.
	b := petri.NewBuilder("line")
	ps := b.Places("p0", "p1", "p2")
	b.TransArcs("t0", ps[:1], ps[1:2])
	b.TransArcs("t1", ps[1:2], ps[2:])
	b.Mark(ps[0])
	n := b.MustBuild()
	ans, err := oracleExplore(n, 10)
	if err != nil || ans.states != 3 || !ans.deadlock {
		t.Fatalf("oracle = %+v, %v", ans, err)
	}
	ref := reference{deadlock: true, states: 3, known: true, oracle: ans}
	good := outcome{deadlock: true, complete: true, states: 3, witness: []bool{false, false, true}}
	if err := ref.check(n, good); err != nil {
		t.Errorf("good outcome rejected: %v", err)
	}
	for name, bad := range map[string]outcome{
		"wrong verdict": {complete: true, states: 3},
		"wrong count":   {deadlock: true, complete: true, states: 2, witness: good.witness},
		"live witness":  {deadlock: true, complete: true, states: 3, witness: []bool{true, false, false}},
		"unreachable":   {deadlock: true, complete: true, states: 3, witness: []bool{false, false, false}},
		"incomplete":    {deadlock: true, states: 3, witness: good.witness},
		"aborted":       {deadlock: true, complete: true, aborted: true, states: 3, witness: good.witness},
		"no witness":    {deadlock: true, complete: true, states: 3},
	} {
		if err := ref.check(n, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := oracleExplore(n, 2); err == nil {
		t.Error("oracle ran past its limit")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 99); p != 5 {
		t.Errorf("p99 = %v", p)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, host hostStamp, wall []float64) string {
		a := artifact{
			Schema: "gpo-benchmark/v1", Host: host, Runs: len(wall),
			Bounds:    map[string]float64{"wall_s": 0.10},
			Workloads: map[string]workloadRuns{wGPO: {Attempted: 10, EndToEnd: map[string]metricRuns{"wall_s": summarise("s", wall)}}},
		}
		data, _ := json.Marshal(a)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := thisHost()
	base := write("base.json", host, []float64{1.00, 1.01, 0.99})
	same := write("same.json", host, []float64{1.02, 1.03, 1.01})
	slow := write("slow.json", host, []float64{1.20, 1.21, 1.19})
	noisy := write("noisy.json", host, []float64{0.8, 1.0, 1.3})
	other := host
	other.NumCPU++
	elsewhere := write("elsewhere.json", other, []float64{2.0, 2.0, 2.0})

	if err := compareArtifacts(base, same); err != nil {
		t.Errorf("within the bound: %v", err)
	}
	if err := compareArtifacts(base, slow); err == nil || !strings.Contains(err.Error(), "1 regression") {
		t.Errorf("20%% slower: %v, want a regression", err)
	}
	if err := compareArtifacts(base, noisy); err == nil || !strings.Contains(err.Error(), "1 unresolved") {
		t.Errorf("spread over the bound: %v, want unresolved", err)
	}
	if err := compareArtifacts(base, elsewhere); err != nil {
		t.Errorf("cross-host rows must not be called regressions: %v", err)
	}
}
