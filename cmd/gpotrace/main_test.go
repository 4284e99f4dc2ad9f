package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/server/servertest"
)

// TestMergeFleetBundle feeds the command what an operator would: the
// bundle GET /v1/runs/{id}/trace serves for a traced 3-peer cluster run,
// saved to a file. -merge must print the attribution table and -o must
// write the merged Perfetto timeline.
func TestMergeFleetBundle(t *testing.T) {
	f, err := servertest.StartFleet(3, server.Config{Workers: 2, TraceRuns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	coord := f.Peers[0]
	resp, err := coord.Client.Verify(context.Background(), &server.Request{
		Model: "nsdp", Size: 6, Engine: "exhaustive", Cluster: true,
	})
	if err != nil {
		t.Fatalf("traced cluster run: %v", err)
	}
	hr, err := coord.HTTP.Get(coord.URL + "/v1/runs/" + resp.RunID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: code=%d err=%v", hr.StatusCode, err)
	}
	dir := t.TempDir()
	bundle, merged := filepath.Join(dir, "bundle.json"), filepath.Join(dir, "merged.json")
	if err := os.WriteFile(bundle, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	if err := run([]string{"-merge", "-o", merged, bundle}, &stdout); err != nil {
		t.Fatalf("gpotrace -merge: %v", err)
	}
	if !strings.Contains(stdout.String(), "slowest") {
		t.Errorf("no attribution table on stdout:\n%s", stdout.String())
	}
	timeline, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(timeline, []byte("gpotrace-merged/v1")) {
		t.Errorf("%s does not carry the gpotrace-merged/v1 schema", merged)
	}
}
