package server

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs/ledger"
)

// TestLedgerEntryBeyondTail looks up run IDs outside the ledger's
// in-memory tail on a 10 000-entry journal: an ID older than the tail
// is found, and an unknown ID decodes no line, so it costs a bounded
// number of allocations instead of one decode per entry.
func TestLedgerEntryBeyondTail(t *testing.T) {
	l, err := ledger.Open(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := l.Append(ledger.Entry{
			RunID: fmt.Sprintf("r%024x", i%(n/2)), RequestID: fmt.Sprint(i),
			Source: "gpod", Net: "NSDP(4)", Engine: "gpo", Check: "deadlock",
			Status: "ok", States: 3, Complete: true,
			Metrics: map[string]int64{"core.states": 3, "zdd.peak_nodes": 1201},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := &Server{cfg: Config{Ledger: l}}

	// Entry 7's run ID recurs at entry n/2+7; the newest one wins.
	e, ok := s.ledgerEntry(fmt.Sprintf("r%024x", 7))
	if !ok || e.RequestID != fmt.Sprint(n/2+7) {
		t.Fatalf("run older than the tail: found=%v request %q, want %d", ok, e.RequestID, n/2+7)
	}
	if _, ok := s.ledgerEntry("rnever"); ok {
		t.Fatal("unknown run ID found")
	}
	if allocs := testing.AllocsPerRun(3, func() { s.ledgerEntry("rnever") }); allocs >= 100 {
		t.Errorf("unknown-ID lookup on %d entries: %.0f allocations, want < 100", n, allocs)
	}
}
