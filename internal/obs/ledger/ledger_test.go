package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func entry(i int) Entry {
	return Entry{
		RunID:       fmt.Sprintf("r%024x", i),
		Source:      "test",
		Net:         "nsdp(4)",
		Engine:      "exhaustive",
		Check:       "deadlock",
		StartUnixNS: int64(1000 * i),
		EndUnixNS:   int64(1000*i + 500),
		WallNS:      500,
		Status:      "ok",
		States:      322,
		Complete:    true,
		Metrics:     map[string]int64{"reach.states": 322},
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("read %d entries, want 5", len(got))
	}
	for i, e := range got {
		want := entry(i)
		want.Schema = Schema
		if e.RunID != want.RunID || e.States != want.States ||
			e.StartUnixNS != want.StartUnixNS || e.Metrics["reach.states"] != 322 {
			t.Errorf("entry %d = %+v, want %+v", i, e, want)
		}
		if e.Schema != Schema {
			t.Errorf("entry %d schema = %q, want %q", i, e.Schema, Schema)
		}
	}
}

func TestLedgerRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	// Budget fits roughly two entries; appends beyond that rotate.
	j, err := OpenJournal(path, 700)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		e := entry(i)
		e.Schema = Schema
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rotation keeps only one prior generation, so the oldest entries
	// are gone — but what survives is contiguous, newest-tailed, and in
	// append order across the generation boundary.
	if len(got) == 0 || len(got) >= 7 {
		t.Fatalf("read %d entries after rotation, want 0 < n < 7", len(got))
	}
	last := got[len(got)-1]
	if last.StartUnixNS != entry(6).StartUnixNS {
		t.Errorf("newest surviving entry = %d, want entry 6", last.StartUnixNS)
	}
	for i := 1; i < len(got); i++ {
		if got[i].StartUnixNS <= got[i-1].StartUnixNS {
			t.Errorf("entries out of order at %d: %d after %d", i, got[i].StartUnixNS, got[i-1].StartUnixNS)
		}
	}
}

func TestLedgerTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(entry(0))
	l.Append(entry(1))
	l.Close()
	// Simulate a crash mid-write: append half a JSON object, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":"ledger/v1","run_id":"rdeadbeef","sta`)
	f.Close()
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d entries with torn tail, want 2 (tail skipped)", len(got))
	}
	// Reopening heals the torn tail (terminates the fragment), so new
	// appends land on their own lines and survive.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(entry(2)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d entries after torn tail + heal + append, want 3", len(got))
	}
}

// TestJournalCloseAndOverlongLine pins the rest of the Journal
// contract: Close is idempotent and refuses later appends, and a line
// over Scan's cap is an error from Read, not a silently short history.
func TestJournalCloseAndOverlongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := entry(0)
	e.Schema = Schema
	if err := j.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(map[string]string{"pad": strings.Repeat("x", 16<<20)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := j.Append(e); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if got, err := Read(path); err == nil || len(got) != 1 {
		t.Fatalf("Read past an overlong line = (%d entries, %v), want 1 entry and an error", len(got), err)
	}
}

func TestLedgerNilAndMissing(t *testing.T) {
	var l *Log
	if err := l.Append(entry(0)); err != nil {
		t.Fatalf("nil Append: %v", err)
	}
	if got := l.Recent(); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	if l.Path() != "" {
		t.Fatal("nil Path nonempty")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	got, err := Read(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing journal read = (%v, %v), want empty", got, err)
	}
}

func TestLedgerRecentTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := recentCap + 10
	for i := 0; i < n; i++ {
		l.Append(entry(i))
	}
	recent := l.Recent()
	if len(recent) != recentCap {
		t.Fatalf("Recent holds %d entries, want %d", len(recent), recentCap)
	}
	if recent[len(recent)-1].StartUnixNS != entry(n-1).StartUnixNS {
		t.Error("Recent tail does not end at the newest entry")
	}
	if recent[0].StartUnixNS != entry(10).StartUnixNS {
		t.Errorf("Recent tail starts at %d, want entry 10", recent[0].StartUnixNS)
	}
}

func TestLedgerConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Append(entry(w*100 + i)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("read %d entries after concurrent appends, want 400 (line-atomic writes)", len(got))
	}
}

func TestSummarize(t *testing.T) {
	var entries []Entry
	// Five completed exhaustive runs of nsdp(4): walls 100,100,100,100,900
	// — the 900 is an outlier (> 2×median).
	for i, wall := range []int64{100, 100, 100, 100, 900} {
		e := entry(i)
		e.WallNS = wall
		entries = append(entries, e)
	}
	// One aborted run in the same group.
	ab := entry(9)
	ab.Status = "aborted"
	ab.AbortReason = "deadline"
	ab.Complete = false
	entries = append(entries, ab)
	// A different engine on the same net: two runs, too few for outliers.
	for i, wall := range []int64{50, 500} {
		e := entry(20 + i)
		e.Engine = "gpo"
		e.WallNS = wall
		entries = append(entries, e)
	}

	groups := Summarize(entries)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	ex := groups[0]
	if ex.Engine != "exhaustive" {
		t.Fatalf("groups not sorted: first engine = %s", ex.Engine)
	}
	if ex.Runs != 6 || ex.Aborted != 1 {
		t.Errorf("exhaustive runs/aborted = %d/%d, want 6/1", ex.Runs, ex.Aborted)
	}
	if ex.MedianWallNS != 100 || ex.P90WallNS != 900 {
		t.Errorf("median/p90 = %d/%d, want 100/900", ex.MedianWallNS, ex.P90WallNS)
	}
	if ex.States != 322 {
		t.Errorf("group States = %d, want 322", ex.States)
	}
	if len(ex.Outliers) != 1 || ex.Outliers[0].WallNS != 900 {
		t.Errorf("outliers = %v, want exactly the 900ns run", ex.Outliers)
	}
	gpo := groups[1]
	if gpo.Engine != "gpo" || len(gpo.Outliers) != 0 {
		t.Errorf("gpo group flagged outliers with only %d runs", gpo.Runs)
	}

	// Disagreeing state counts surface as States == -1 with the
	// disagreement flag raised.
	bad := entry(30)
	bad.States = 999
	groups = Summarize(append(entries, bad))
	if groups[0].States != -1 || !groups[0].StatesDisagree {
		t.Errorf("disagreement: States=%d StatesDisagree=%v, want -1/true",
			groups[0].States, groups[0].StatesDisagree)
	}
	if groups[0].Completed != 6 {
		t.Errorf("Completed = %d, want 6", groups[0].Completed)
	}
}

// TestSummarizeNoCompletedRuns is the regression test for the
// all-aborted-group bug: Summarize initialized its agreed-state sentinel
// to -1 and never updated it when a group had zero completed runs, so
// such groups were indistinguishable from genuine determinism
// disagreements (gpostat rendered them as DISAGREE).
func TestSummarizeNoCompletedRuns(t *testing.T) {
	var entries []Entry
	for i := 0; i < 3; i++ {
		e := entry(i)
		e.Status = "aborted"
		e.AbortReason = "deadline"
		e.Complete = false
		entries = append(entries, e)
	}
	groups := Summarize(entries)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.Runs != 3 || g.Aborted != 3 || g.Completed != 0 {
		t.Errorf("runs/aborted/completed = %d/%d/%d, want 3/3/0", g.Runs, g.Aborted, g.Completed)
	}
	if g.StatesDisagree {
		t.Error("all-aborted group flagged StatesDisagree")
	}
	if g.States != 0 {
		t.Errorf("all-aborted group States = %d, want 0 (the -1 sentinel means disagreement)", g.States)
	}
}

// TestQuantileCeilRule pins the ledger quantile to the ceil nearest-rank
// definition rank = ⌈q·n⌉ shared with obs.Histogram.Quantile. The n=7
// q=0.9 case discriminates against the old +0.5 rounding rule, which
// picked rank 6 (⌈6.3⌉ = 7 vs ⌊6.3+0.5⌋ = 6).
func TestQuantileCeilRule(t *testing.T) {
	cases := []struct {
		sorted []int64
		q      float64
		want   int64
	}{
		{[]int64{10}, 0.5, 10},
		{[]int64{10}, 0.9, 10},
		{[]int64{10, 20}, 0.5, 10}, // ⌈1.0⌉ = 1
		{[]int64{10, 20}, 0.9, 20}, // ⌈1.8⌉ = 2
		{[]int64{10, 20, 30}, 0.5, 20},
		{[]int64{10, 20, 30}, 0.9, 30},
		{[]int64{1, 2, 3, 4, 5, 6, 7}, 0.9, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %d, want %d", c.sorted, c.q, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		e    Entry
		want string
	}{
		{Entry{Status: "ok", Check: "deadlock", Deadlock: true}, "deadlock"},
		{Entry{Status: "ok", Check: "deadlock", Deadlock: false}, "deadlock-free"},
		{Entry{Status: "ok", Check: "safety", Deadlock: true}, "unsafe"},
		{Entry{Status: "ok", Check: "safety", Deadlock: false}, "safe"},
		{Entry{Status: "aborted"}, "aborted"},
		{Entry{Status: "error"}, "error"},
	}
	for _, c := range cases {
		if got := c.e.Verdict(); got != c.want {
			t.Errorf("Verdict(%+v) = %q, want %q", c.e, got, c.want)
		}
	}
}
