package bench

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/verify"
)

// instrumented runs one check twice — bare, and under the full
// introspection stack (per-run registry, a progress counter read by a
// live sampler, ledger append) — and returns both reports plus the
// counter's final value and the registry.
func instrumented(t *testing.T, net string, size int, engine verify.Engine, log *ledger.Log) (bare, instr *verify.Report, lastCount int64, reg *obs.Registry) {
	t.Helper()
	n, err := models.ByName(net, size)
	if err != nil {
		t.Fatal(err)
	}
	opts := verify.Options{Engine: engine}
	bare, err = verify.CheckDeadlock(n, opts)
	if err != nil {
		t.Fatalf("%s(%d)/%s bare: %v", net, size, engine, err)
	}

	reg = obs.New()
	var progress obs.Counter
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() { // samples the counter the way a live SSE stream does
		defer close(sampled)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
				if v := progress.Value(); v < last {
					t.Errorf("%s(%d)/%s: progress went back from %d to %d", net, size, engine, last, v)
				} else {
					last = v
				}
				runtime.Gosched()
			}
		}
	}()
	opts.Metrics = reg
	opts.Progress = &progress
	instr, err = verify.CheckDeadlock(n, opts)
	close(stop)
	<-sampled
	if err != nil {
		t.Fatalf("%s(%d)/%s instrumented: %v", net, size, engine, err)
	}
	lastCount = progress.Value()

	if err := log.Append(ledger.Entry{
		RunID:       verify.RunID(n, "deadlock", nil, verify.Options{Engine: engine}),
		Source:      "gpobench",
		Net:         n.Name(),
		Engine:      engine.String(),
		Check:       "deadlock",
		Status:      "ok",
		Deadlock:    instr.Deadlock,
		States:      int64(instr.States),
		Complete:    instr.Complete,
		StartUnixNS: 1,
		EndUnixNS:   1 + int64(instr.Elapsed),
		WallNS:      int64(instr.Elapsed),
	}); err != nil {
		t.Fatalf("ledger append: %v", err)
	}
	return bare, instr, lastCount, reg
}

// sameReport fails the test when the two reports differ in anything but
// wall clock.
func sameReport(t *testing.T, label string, bare, instr *verify.Report) {
	t.Helper()
	a, b := *bare, *instr
	a.Elapsed, b.Elapsed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: instrumented run differs from bare run:\nbare:  %+v\ninstr: %+v", label, a, b)
	}
}

// TestLedgerAndStreamingArePassive pins the observability acceptance
// criterion of the run-ledger work: journaling and live streaming must
// never perturb results. Every Table 1 instance is checked with the GPO
// engine — and the small ones exhaustively — once bare and once under
// the full stack (per-run registry + progress counter with a live
// sampler + ledger append); the two reports must be bit-identical apart
// from wall clock. For exhaustive runs the counter's final value, the
// report's state count and the reach.states counter must all agree.
func TestLedgerAndStreamingArePassive(t *testing.T) {
	log, err := ledger.Open(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	entries := 0
	for _, r := range Table1() {
		label := fmt.Sprintf("%s(%d)/gpo", r.Family, r.Size)
		bare, instr, _, _ := instrumented(t, r.Family, r.Size, verify.GPO, log)
		sameReport(t, label, bare, instr)
		entries++
	}

	// Exhaustive on instances small enough to enumerate in a test run.
	for _, in := range []struct {
		family string
		size   int
	}{{"nsdp", 4}, {"asat", 2}, {"over", 3}, {"rw", 9}} {
		label := fmt.Sprintf("%s(%d)/exhaustive", in.family, in.size)
		bare, instr, last, reg := instrumented(t, in.family, in.size, verify.Exhaustive, log)
		sameReport(t, label, bare, instr)
		if last != int64(instr.States) {
			t.Errorf("%s: final progress count = %d, want States = %d", label, last, instr.States)
		}
		if got := reg.Counter("reach.states").Value(); got != int64(instr.States) {
			t.Errorf("%s: reach.states = %d, want %d", label, got, instr.States)
		}
		entries++
	}

	// The journal must hold exactly one parseable entry per run, with
	// the state counts the reports agreed on.
	all, err := ledger.Read(log.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != entries {
		t.Fatalf("ledger holds %d entries, want %d", len(all), entries)
	}
	for _, g := range ledger.Summarize(all) {
		if g.States < 0 {
			t.Errorf("ledger group %s/%s: completed runs disagree on states", g.Net, g.Engine)
		}
	}
}
