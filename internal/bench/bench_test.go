package bench

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/verify"
)

// TestJSONArtifactGolden checks TABLE1.json's format: the file at the
// repository root, written by `gpobench -json`, parses as an unfiltered
// run, round-trips byte for byte through Parse and WriteJSON, and Parse
// refuses it under any other schema.
func TestJSONArtifactGolden(t *testing.T) {
	data, rep := readTable1(t)
	if rep.Only != "" || rep.Reduce {
		t.Fatalf("TABLE1.json is a filtered run: only=%q reduce=%v", rep.Only, rep.Reduce)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("TABLE1.json does not round-trip byte for byte through Parse and WriteJSON")
	}
	if _, err := Parse(bytes.Replace(data, []byte(Schema), []byte("gpobench/v1"), 1)); err == nil {
		t.Error("Parse accepted another schema")
	}
}

// TestTable1Artifact is the Table 1 reproduction check: TABLE1.json must
// cover every Table 1 instance with all five engines in RunRow order and
// hold exactly the counts this tree regenerates. The explicit engines on
// the two >150k-state instances and rw(15)/symbolic take 12 of the 13 s a
// full regeneration costs on 2 vCPUs, so they are left to scripts/check.sh's
// `gpobench -json | cmp - TABLE1.json`, the same carve-outs as
// TestReduceEquivalentOnTable1; -short keeps the ≤10 000-state rows.
func TestTable1Artifact(t *testing.T) {
	_, rep := readTable1(t)
	rows := Table1()
	if len(rep.Entries) != len(rows)*len(engines) {
		t.Fatalf("TABLE1.json holds %d entries, want %d instances × %d engines",
			len(rep.Entries), len(rows), len(engines))
	}
	const maxFull = 150_000
	for i, r := range rows {
		name := InstanceName(r.Family, r.Size)
		net, err := models.ByName(r.Family, r.Size)
		if err != nil {
			t.Fatal(err)
		}
		for j, engine := range engines {
			got := rep.Entries[i*len(engines)+j]
			if got.Family != r.Family || got.Size != r.Size || got.Engine != engine {
				t.Fatalf("entry %d is %s/%s, want %s/%s", i*len(engines)+j,
					InstanceName(got.Family, got.Size), got.Engine, name, engine)
			}
			if !got.Skipped && (got.Capped || got.Error != "" || got.States <= 0 ||
				(engine == EngineSymbolic || engine == EngineGPO) != (got.PeakNodes > 0)) {
				t.Errorf("%s/%s: implausible entry %+v", name, engine, got)
			}
			explicit := engine != EngineSymbolic && engine != EngineGPO
			if (explicit && r.PaperFull > maxFull) || (engine == EngineSymbolic && name == "rw(15)") ||
				(testing.Short() && r.PaperFull > 10_000) {
				continue
			}
			want := Config{}.measure(net, r, engine)
			want.Wall = 0
			if got != want {
				t.Errorf("%s/%s: TABLE1.json records %+v, this tree measures %+v (regenerate with `make bench-artifact`)",
					name, engine, got, want)
			}
		}
	}
}

// readTable1 reads and parses TABLE1.json at the repository root.
func readTable1(t *testing.T) ([]byte, *Report) {
	t.Helper()
	data, err := os.ReadFile("../../TABLE1.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, rep
}

// TestRunUnknownSelection checks the empty-selection error.
func TestRunUnknownSelection(t *testing.T) {
	if _, err := Run(Config{Only: "nosuch"}); err == nil {
		t.Fatal("Run with an instance filter that matches nothing succeeded")
	}
}

// TestMetricsDoNotPerturb verifies the instrumentation-only-observes
// invariant: attaching a Registry must not change how many states any
// engine explores.
func TestMetricsDoNotPerturb(t *testing.T) {
	net, err := models.ByName("rw", 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []verify.Engine{
		verify.Exhaustive, verify.PartialOrder, verify.Symbolic,
		verify.GPO, verify.GPOExplicit, verify.Unfolding,
	} {
		bare, err := verify.CheckDeadlock(net, verify.Options{Engine: eng})
		if err != nil {
			t.Fatalf("%v bare: %v", eng, err)
		}
		reg := obs.New()
		inst, err := verify.CheckDeadlock(net, verify.Options{Engine: eng, Metrics: reg})
		if err != nil {
			t.Fatalf("%v instrumented: %v", eng, err)
		}
		if bare.States != inst.States {
			t.Errorf("%v: metrics changed states explored: %d (bare) vs %d (instrumented)",
				eng, bare.States, inst.States)
		}
		if bare.Deadlock != inst.Deadlock {
			t.Errorf("%v: metrics changed the verdict: %v vs %v", eng, bare.Deadlock, inst.Deadlock)
		}
	}
}

// TestCountersMatchReport cross-checks the registry's counters against
// the report the engine returns through its own result struct.
func TestCountersMatchReport(t *testing.T) {
	net, err := models.ByName("over", 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		eng     verify.Engine
		counter string
	}{
		{verify.Exhaustive, "reach.states"},
		{verify.PartialOrder, "stubborn.states"},
		{verify.GPO, "core.states"},
		{verify.GPOExplicit, "core.states"},
		{verify.Unfolding, "unfold.events"},
	}
	for _, c := range cases {
		reg := obs.New()
		rep, err := verify.CheckDeadlock(net, verify.Options{Engine: c.eng, Metrics: reg})
		if err != nil {
			t.Fatalf("%v: %v", c.eng, err)
		}
		if got := reg.Counter(c.counter).Value(); got != int64(rep.States) {
			t.Errorf("%v: counter %s = %d, report states = %d", c.eng, c.counter, got, rep.States)
		}
	}
}
