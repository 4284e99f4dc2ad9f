package verify

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/models"
	"repro/internal/obs/trace"
)

// TestTraceRoundTripReconstructsStates is the façade-level acceptance
// check behind gpoverify -trace: a traced run exports as Chrome trace
// JSON that (a) validates as a Chrome trace file and (b) round-trips
// through ReadDump so the summarizer reconstructs the explored state
// count from the events alone — for the explicit engines exactly, with
// no access to the Report.
func TestTraceRoundTripReconstructsStates(t *testing.T) {
	cases := []struct {
		engine  Engine
		workers int
	}{
		{Exhaustive, 0},
		{Exhaustive, 4}, // below the handoff width: one sequential account
		{PartialOrder, 0},
		{GPO, 0},
		{Unfolding, 0},
	}
	net, err := models.ByName("nsdp", 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		name := tc.engine.String()
		if tc.workers > 0 {
			name += "-parallel"
		}
		t.Run(name, func(t *testing.T) {
			tr := trace.New(trace.Options{})
			rep, err := CheckDeadlock(net, Options{
				Engine:  tc.engine,
				Workers: tc.workers,
				Trace:   tr,
			})
			if err != nil {
				t.Fatal(err)
			}

			var chrome bytes.Buffer
			if err := trace.WriteChrome(&chrome, tr.Dump()); err != nil {
				t.Fatalf("WriteChrome: %v", err)
			}
			// Shape check: what chrome://tracing and Perfetto require.
			var file struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(chrome.Bytes(), &file); err != nil {
				t.Fatalf("trace file is not valid JSON: %v", err)
			}
			if len(file.TraceEvents) == 0 {
				t.Fatal("trace file has no events")
			}
			for _, ev := range file.TraceEvents {
				if _, ok := ev["ph"].(string); !ok {
					t.Fatalf("trace event without a phase: %v", ev)
				}
			}

			back, err := trace.ReadDump(bytes.NewReader(chrome.Bytes()))
			if err != nil {
				t.Fatalf("ReadDump: %v", err)
			}
			sum := trace.Summarize(back, 5)
			if sum.States != rep.States {
				t.Fatalf("trace reconstructs %d states, engine explored %d",
					sum.States, rep.States)
			}
			if sum.Aborted {
				t.Fatalf("completed run summarized as aborted: %+v", sum)
			}
		})
	}
}

// TestSymbolicTraceIterations pins the symbolic engine's trace surface:
// one iter event per image step and the relation/fixpoint phase
// brackets, since it has no per-state events to count.
func TestSymbolicTraceIterations(t *testing.T) {
	net, err := models.ByName("nsdp", 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{})
	rep, err := CheckDeadlock(net, Options{Engine: Symbolic, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(tr.Dump(), 5)
	phases := make(map[string]bool)
	for _, ph := range sum.Phases {
		phases[ph.Name] = true
	}
	if !phases["relations"] || !phases["fixpoint"] {
		t.Fatalf("symbolic phases missing: %+v", sum.Phases)
	}
	_ = rep
}
