package main

import (
	"testing"

	"repro/internal/bench"
)

// TestCkptSingleRun pins that -ckpt refuses every selection of more
// than one run — several Table 1 instances under -only as much as
// -compare's engine table — since each run would suspend and write the
// same file, the last one silently overwriting the rest.
func TestCkptSingleRun(t *testing.T) {
	rows, err := bench.Config{Only: `nsdp\(6\)|rw\(9\)`}.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("-only selected %d instances, want 2", len(rows))
	}
	for _, tc := range []struct {
		label         string
		nets, engines int
		ok            bool
	}{
		{"-only, two instances", len(rows), 1, false},
		{"-compare", 1, 5, false},
		{"one net, one engine", 1, 1, true},
	} {
		if err := ckptSingleRun("run.ckpt", tc.nets, tc.engines); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.label, err, tc.ok)
		}
	}
	if err := ckptSingleRun("", len(rows), 5); err != nil {
		t.Errorf("without -ckpt: %v", err)
	}
}
