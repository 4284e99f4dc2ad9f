package bench

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
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

// TestServedPartialOrderIsTable1 checks that the partial-order engine
// verify serves is the one TABLE1.json's PO column measures: without the
// proviso it explores exactly that column's states on every row
// TestTable1Artifact affords, and with the proviso it keeps first seed
// (best seed explores 32 083 states on asat(8)).
func TestServedPartialOrderIsTable1(t *testing.T) {
	_, rep := readTable1(t)
	for _, e := range rep.Entries {
		if e.Engine != EnginePO || e.Skipped || slices.ContainsFunc(Table1(), func(r Row) bool {
			return r.Family == e.Family && r.Size == e.Size && r.PaperFull > 150_000
		}) {
			continue
		}
		net, err := models.ByName(e.Family, e.Size)
		if err != nil {
			t.Fatal(err)
		}
		got, err := verify.CheckDeadlock(net, verify.Options{Engine: verify.PartialOrder})
		if err != nil {
			t.Fatal(err)
		}
		if int64(got.States) != e.States {
			t.Errorf("%s: verify's partial-order engine explores %d states, TABLE1.json's PO column %d",
				InstanceName(e.Family, e.Size), got.States, e.States)
		}
	}
	for _, c := range []struct {
		family       string
		size, states int
	}{{"nsdp", 7, 24_458}, {"asat", 8, 6_323}} {
		net, err := models.ByName(c.family, c.size)
		if err != nil {
			t.Fatal(err)
		}
		got, err := verify.CheckDeadlock(net, verify.Options{Engine: verify.PartialOrder, Proviso: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.States != c.states {
			t.Errorf("%s with the proviso: %d states, want first seed's %d",
				InstanceName(c.family, c.size), got.States, c.states)
		}
	}
}

// TestTable1Docs holds EXPERIMENTS.md's Table 1 to TABLE1.json: in the
// first table under each of the ### NSDP, ASAT, OVER and RW headings,
// every "(ours)" count column equals the committed entry (states, or
// peak_nodes for the BDD column), and "–" marks a skipped one.
func TestTable1Docs(t *testing.T) {
	_, rep := readTable1(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	entries := make(map[string]Entry)
	for _, e := range rep.Entries {
		entries[fmt.Sprintf("%s(%d)/%s", e.Family, e.Size, e.Engine)] = e
	}
	columns := map[string]string{
		"full (ours)": EngineExhaustive, "PO (ours)": EnginePO, "PO+prov (ours)": EnginePOProviso,
		"BDD (ours)": EngineSymbolic, "BDD peak (ours)": EngineSymbolic, "GPO (ours)": EngineGPO,
	}
	clean := strings.NewReplacer("**", "", " (= full)", "", " ", "")
	var family string
	var header []string
	cells := 0
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "### ") {
			family, header = "", nil
			if f, _, ok := strings.Cut(line[4:], " "); ok && slices.Contains([]string{"NSDP", "ASAT", "OVER", "RW"}, f) {
				family = strings.ToLower(f)
			}
			continue
		}
		if family == "" {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if header != nil {
				family = "" // only the first table under the heading
			}
			continue
		}
		row := strings.Split(strings.Trim(line, "|"), "|")
		for i := range row {
			row[i] = strings.TrimSpace(row[i])
		}
		if header == nil {
			header = row
			continue
		}
		if strings.HasPrefix(row[0], "---") {
			continue
		}
		for i, col := range header {
			engine, ok := columns[col]
			if !ok {
				continue
			}
			cells++
			key := fmt.Sprintf("%s(%s)/%s", family, row[0], engine)
			e, ok := entries[key]
			if v := clean.Replace(row[i]); !ok {
				t.Errorf("%s: EXPERIMENTS.md has %q, TABLE1.json no entry", key, row[i])
			} else if v == "–" {
				if !e.Skipped {
					t.Errorf("%s: EXPERIMENTS.md skips it, TABLE1.json records %+v", key, e)
				}
			} else if n, err := strconv.ParseInt(v, 10, 64); err != nil ||
				(engine == EngineSymbolic && n != e.PeakNodes) || (engine != EngineSymbolic && n != e.States) {
				t.Errorf("%s: EXPERIMENTS.md has %q, TABLE1.json records %+v", key, row[i], e)
			}
		}
	}
	if cells != 69 {
		t.Errorf("read %d Table 1 cells from EXPERIMENTS.md, want 69", cells)
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
