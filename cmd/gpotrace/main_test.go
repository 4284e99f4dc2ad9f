package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/models"
	"repro/internal/obs/trace"
	"repro/internal/verify"
)

// TestSummarizeBothFormats records one exhaustive run and feeds the
// command both formats a dump has had: the Chrome trace JSON it reads,
// whose summary must reconstruct the run's state count from the events
// alone, and the retired JSONL format, which must fail rather than be
// misread.
func TestSummarizeBothFormats(t *testing.T) {
	tr := trace.New(trace.Options{})
	rep, err := verify.CheckDeadlock(models.NSDP(4), verify.Options{Engine: verify.Exhaustive, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
	if err := trace.WriteFile(path, tr.Dump()); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	var s trace.Summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.States != rep.States {
		t.Errorf("summary counts %d states, the run %d", s.States, rep.States)
	}

	jsonl := filepath.Join(dir, "t.jsonl")
	if err := os.WriteFile(jsonl, []byte(`{"type":"meta","v":2,"tracks":["reach"]}`+"\n"+
		`{"type":"event","track":0,"ts":5,"kind":"state","a0":0,"a1":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{jsonl}, &out); !errors.Is(err, trace.ErrBadHeader) {
		t.Fatalf("gpotrace on a JSONL dump: %v, want %v", err, trace.ErrBadHeader)
	}
	if out.Len() != 0 {
		t.Errorf("gpotrace printed %q for a file it could not parse", out.String())
	}
}
