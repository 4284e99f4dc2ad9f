package server_test

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/server"
)

// metricToken matches a documented metric name after brace expansion:
// at least one dot-separated snake_case segment pair.
var metricToken = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// codeSpan pulls the backtick-quoted tokens out of the markdown.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// expandBraces expands `zdd.unique_{hits,misses}`-style shorthands into
// their members; tokens without braces pass through unchanged.
func expandBraces(tok string) []string {
	i := strings.Index(tok, "{")
	if i < 0 {
		return []string{tok}
	}
	j := strings.Index(tok[i:], "}")
	if j < 0 {
		return []string{tok}
	}
	j += i
	var out []string
	for _, alt := range strings.Split(tok[i+1:j], ",") {
		out = append(out, expandBraces(tok[:i]+alt+tok[j+1:])...)
	}
	return out
}

// documentedMetricNames collects every metric-shaped backtick token in
// the markdown, brace shorthands expanded.
func documentedMetricNames(doc string) map[string]bool {
	names := make(map[string]bool)
	for _, m := range codeSpan.FindAllStringSubmatch(doc, -1) {
		for _, tok := range expandBraces(m[1]) {
			if metricToken.MatchString(tok) {
				names[tok] = true
			}
		}
	}
	return names
}

// TestRuntimeMetricsDocumented is the drift check: every server.*,
// reach.*, zdd.*, reduce.* and cluster.* metric the running service
// actually registers must appear in OBSERVABILITY.md's tables, so the
// doc cannot silently rot as instrumentation grows. The workload covers
// the sequential and parallel explicit engines, the ZDD-backed GPO
// engine, the result cache (hit + miss), a reduced run on a net every
// reduction rule fires on, a 3-peer cluster run (which also sweeps the
// shared result tier) and a durable job, which together register every
// metric in those namespaces.
func TestRuntimeMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read OBSERVABILITY.md: %v", err)
	}
	documented := documentedMetricNames(string(doc))
	if len(documented) < 20 {
		t.Fatalf("only %d documented metric names parsed — extraction broken?", len(documented))
	}

	f := startFleet(t, 3, server.Config{Workers: 1})
	c := f.Peers[0].Client
	ctx := context.Background()
	for _, req := range []*server.Request{
		{Model: "nsdp", Size: 4, Engine: "exhaustive"},             // reach.* (sequential)
		{Model: "nsdp", Size: 4, Engine: "exhaustive", Workers: 2}, // reach.* (parallel explorer)
		{Model: "nsdp", Size: 4, Engine: "exhaustive"},             // server.cache_hits
		{Model: "nsdp", Size: 4, Engine: "gpo"},                    // zdd.* via core.StatsReporter
		{Model: "rw", Size: 6, Engine: "gpo", Reduce: true},        // reduce.* (rw reduces hard)
		// cluster.* — a fresh key, so it misses the shared tier and
		// runs here rather than answering from the result cache.
		{Model: "rw", Size: 8, Engine: "exhaustive", Cluster: true},
	} {
		if _, err := c.Verify(ctx, req); err != nil {
			t.Fatalf("verify %+v: %v", req, err)
		}
	}

	// jobs.* and ckpt.* — one durable job through submit → done, on a
	// server of its own (a fleet's peers share one Config, so they cannot
	// have a store each) that reports into the same registry.
	reg := f.Peers[0].Metrics
	jc, _, _ := jobsService(t, t.TempDir(), server.Config{Workers: 1, Metrics: reg})
	jb, err := jc.SubmitJob(ctx, &server.Request{Model: "nsdp", Size: 4, Engine: "gpo", Check: "deadlock", StopAtFirst: true})
	if err != nil {
		t.Fatalf("submit job: %v", err)
	}
	waitJob(t, jc, jb.ID, jobs.Done)

	snap := reg.Snapshot()
	var runtimeNames []string
	for name := range snap.Counters {
		runtimeNames = append(runtimeNames, name)
	}
	for name := range snap.Gauges {
		runtimeNames = append(runtimeNames, name)
	}
	for name := range snap.Histograms {
		runtimeNames = append(runtimeNames, name)
	}
	checked := 0
	for _, name := range runtimeNames {
		switch {
		case strings.HasPrefix(name, "server."),
			strings.HasPrefix(name, "reach."),
			strings.HasPrefix(name, "zdd."),
			strings.HasPrefix(name, "reduce."),
			strings.HasPrefix(name, "cluster."),
			strings.HasPrefix(name, "jobs."),
			strings.HasPrefix(name, "ckpt."):
			checked++
			if !documented[name] {
				t.Errorf("runtime metric %q is not documented in OBSERVABILITY.md", name)
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d server./reach./zdd./reduce. metrics registered — workload too thin for a drift check", checked)
	}
}
