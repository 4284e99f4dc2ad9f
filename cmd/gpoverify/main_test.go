package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs/ledger"
	"repro/internal/server"
	"repro/internal/server/servertest"
)

// childEnv marks a re-executed test binary that is to be gpoverify:
// TestMain runs main() on the arguments it was given instead of the
// tests.
const childEnv = "GPOVERIFY_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// TestLedgerMatchesDaemon: `gpoverify -ledger` and gpod journal the same
// run alike — one entry each, equal in everything but what names the
// writer and the execution (source, request ID, timestamps, the
// daemon's per-run metrics and cluster peers).
func TestLedgerMatchesDaemon(t *testing.T) {
	dir := t.TempDir()
	cliLedger, gpodLedger := filepath.Join(dir, "cli.jsonl"), filepath.Join(dir, "gpod.jsonl")

	cmd := exec.Command(os.Args[0], "-model", "nsdp", "-size", "4", "-engine", "gpo", "-ledger", cliLedger)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gpoverify: %v\n%s", err, out)
	}

	l, err := ledger.Open(gpodLedger, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s, err := servertest.Start(server.Config{Workers: 1, Ledger: l})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Client.Verify(context.Background(), &server.Request{Model: "nsdp", Size: 4, Engine: "gpo"}); err != nil {
		t.Fatalf("gpod: %v", err)
	}

	var got [2]ledger.Entry
	for i, path := range []string{cliLedger, gpodLedger} {
		es, err := ledger.Read(path)
		if err != nil || len(es) != 1 {
			t.Fatalf("%s: %d entries, %v; want one", path, len(es), err)
		}
		e := es[0]
		if e.Source == "" || e.StartUnixNS == 0 || e.EndUnixNS < e.StartUnixNS {
			t.Errorf("%s: writer fields not stamped: %+v", path, e)
		}
		e.Source, e.RequestID, e.Metrics, e.Peers = "", "", nil, 0
		e.StartUnixNS, e.EndUnixNS, e.WallNS = 0, 0, 0
		got[i] = e
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("gpoverify and gpod journal NSDP(4)/gpo differently:\ngpoverify %+v\ngpod      %+v", got[0], got[1])
	}
	if got[0].Status != "ok" || !got[0].Complete || got[0].RunID == "" {
		t.Fatalf("entry: %+v", got[0])
	}
}

// TestProgressDoneLine: -progress ends stderr with one "(done)" line
// whose count is the state count the engine reports on stdout.
func TestProgressDoneLine(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-model", "nsdp", "-size", "6", "-engine", "exhaustive", "-progress")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("gpoverify: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	var states string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(l); len(f) > 2 && f[0] == "exhaustive" {
			states = f[2]
		}
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	last := lines[len(lines)-1]
	if states == "" || !strings.HasPrefix(last, "exhaustive: "+states+" states in ") || !strings.HasSuffix(last, " (done)") {
		t.Fatalf("last stderr line %q, want the (done) count of %s states", last, states)
	}
	if n := strings.Count(stderr.String(), "(done)"); n != 1 {
		t.Fatalf("%d (done) lines, want one:\n%s", n, stderr.String())
	}
}
