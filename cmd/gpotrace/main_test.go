package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/models"
	"repro/internal/obs/trace"
	"repro/internal/verify"
)

// TestSummarizeBothFormats records one exhaustive run and feeds its dump
// to the command in each format: the summary must reconstruct the run's
// state count from the events alone.
func TestSummarizeBothFormats(t *testing.T) {
	tr := trace.New(trace.Options{})
	rep, err := verify.CheckDeadlock(models.NSDP(4), verify.Options{Engine: verify.Exhaustive, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.json", "t.jsonl"} {
		path := filepath.Join(t.TempDir(), name)
		if err := trace.WriteFile(path, tr.Dump()); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-json", path}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var s trace.Summary
		if err := json.Unmarshal(out.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.States != rep.States {
			t.Errorf("%s: summary counts %d states, the run %d", name, s.States, rep.States)
		}
	}
}
