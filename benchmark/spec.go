package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is only present on end-to-end metrics.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is BENCHMARK.json, the contract between this driver and
// whoever gates on it. The driver reads the names it must emit from the
// file and refuses to run when they differ from its own tables, so the
// two cannot drift apart silently.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// endToEnd lists the end-to-end metrics this driver computes, in output
// order. Every workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "verdict_geomean_ms", Unit: "ms", Better: "lower"},
	{Name: "verdict_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "verdict_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
}

// layerMetric is one per-layer metric with the prediction that goes with
// it: the workloads on which the layer does work (the metric reads 0 on
// every other workload, which is the "this layer is idle here" statement
// later changes are checked against).
type layerMetric struct {
	metricDef
	On []string // workloads that fill the metric
}

func lm(name, unit, better string, on ...string) layerMetric {
	return layerMetric{metricDef{Name: name, Unit: unit, Better: better}, on}
}

const (
	wSeq     = "explicit-seq"
	wPar     = "explicit-par"
	wGPO     = "gpo"
	wReduce  = "table1-reduce"
	wHot     = "serve-hot"
	wMixed   = "serve-mixed"
	wCluster = "cluster-loopback"
)

var allWorkloads = []string{wSeq, wPar, wGPO, wReduce, wHot, wMixed, wCluster}

// perLayer lists the per-layer metrics, grouped by the package (layer)
// they describe.
var perLayer = []layerMetric{
	// petri: calibrated loops over reachable markings of the workload's
	// largest nsdp net.
	lm("petri.fire_ns", "ns", "lower", wSeq, wPar, wReduce, wCluster),
	lm("petri.enabled_ns", "ns", "lower", wSeq, wPar, wReduce, wCluster),
	lm("petri.key_ns", "ns", "lower", wSeq, wPar, wReduce, wCluster),
	lm("petri.keyhash_ns", "ns", "lower", wSeq, wPar, wReduce, wCluster),
	// reach, sequential.
	lm("reach.seq.ns_per_state", "ns", "lower", wSeq, wReduce),
	lm("reach.seq.states_per_s", "1/s", "higher", wSeq, wReduce),
	lm("reach.seq.alloc_bytes_per_state", "B", "lower", wSeq, wReduce),
	lm("reach.seq.allocs_per_state", "count", "lower", wSeq, wReduce),
	lm("reach.seq.intern_ns_per_state", "ns", "lower", wSeq, wReduce),
	lm("reach.arcs_per_state", "ratio", "lower", wSeq, wPar, wReduce),
	lm("reach.queue_peak", "count", "lower", wSeq, wPar, wReduce),
	// reach, parallel.
	lm("reach.par.ns_per_state", "ns", "lower", wPar),
	lm("reach.par.alloc_bytes_per_state", "B", "lower", wPar),
	lm("reach.par.speedup_x", "x", "higher", wPar),
	lm("reach.par.batches", "count", "lower", wPar),
	lm("reach.par.shard_contention", "count", "lower", wPar),
	// stubborn.
	lm("stubborn.ns_per_state", "ns", "lower", wSeq, wReduce),
	lm("stubborn.alloc_bytes_per_state", "B", "lower", wSeq, wReduce),
	lm("stubborn.reduction_ratio", "ratio", "lower", wSeq, wReduce),
	lm("stubborn.proviso_expansions", "count", "lower", wSeq, wReduce),
	// core.
	lm("core.new_engine_ms", "ms", "lower", wGPO, wReduce),
	lm("core.analyze_ms", "ms", "lower", wGPO, wReduce),
	lm("core.ns_per_firing", "ns", "lower", wGPO, wReduce),
	lm("core.multi_firings", "count", "lower", wGPO, wReduce),
	lm("core.single_firings", "count", "lower", wGPO, wReduce),
	lm("core.peak_valid", "count", "lower", wGPO, wReduce),
	// zdd.
	lm("zdd.peak_nodes", "count", "lower", wGPO, wReduce),
	lm("zdd.unique_hit_ratio", "ratio", "higher", wGPO, wReduce),
	lm("zdd.memo_hit_ratio", "ratio", "higher", wGPO, wReduce),
	lm("zdd.unique_probes_per_lookup", "ratio", "lower", wGPO, wReduce),
	lm("zdd.alloc_mb_per_op", "MB", "lower", wGPO, wReduce),
	// symbolic / bdd.
	lm("symbolic.iterations", "count", "lower", wReduce),
	lm("symbolic.ms_per_iteration", "ms", "lower", wReduce),
	lm("bdd.peak_nodes", "count", "lower", wReduce),
	lm("bdd.cache_hit_ratio", "ratio", "higher", wReduce),
	// structural/reduce.
	lm("reduce.run_ms", "ms", "lower", wReduce),
	lm("reduce.share_of_verdict", "ratio", "lower", wReduce),
	lm("reduce.net_gain_x", "x", "higher", wReduce),
	lm("reduce.places_removed_ratio", "ratio", "higher", wReduce),
	lm("reduce.applications", "count", "higher", wReduce),
	lm("reduce.rounds", "count", "lower", wReduce),
	// verify.
	lm("verify.runkey_us", "us", "lower", wHot, wMixed),
	lm("verify.facade_overhead_us", "us", "lower", wHot),
	// pnio.
	lm("pnio.parse_us_per_kb", "us", "lower", wHot, wMixed),
	lm("pnio.write_us_per_kb", "us", "lower", wHot, wMixed),
	// server.
	lm("server.handler_us_p50", "us", "lower", wHot, wMixed),
	lm("server.handler_us_p99", "us", "lower", wHot, wMixed),
	lm("server.decode_parse_us", "us", "lower", wHot, wMixed),
	lm("server.key_us", "us", "lower", wHot, wMixed),
	lm("server.encode_us", "us", "lower", wHot, wMixed),
	lm("server.residual_us", "us", "lower", wHot, wMixed),
	lm("server.class.hit.p50_us", "us", "lower", wHot, wMixed),
	lm("server.class.hit.p99_us", "us", "lower", wHot, wMixed),
	lm("server.class.cold_small.p50_ms", "ms", "lower", wMixed),
	lm("server.class.cold_small.p90_ms", "ms", "lower", wMixed),
	lm("server.class.cold_large.p50_ms", "ms", "lower", wMixed),
	lm("server.queue_wait_ms_p50", "ms", "lower", wMixed),
	lm("server.queue_wait_ms_p99", "ms", "lower", wMixed),
	lm("server.cache_hit_ratio", "ratio", "higher", wHot, wMixed),
	lm("server.cache_evictions", "count", "lower", wMixed),
	lm("server.cache_bytes", "B", "lower", wHot, wMixed),
	lm("server.shed", "count", "lower", wHot, wMixed),
	lm("server.bytes_in_per_req", "B", "lower", wHot, wMixed),
	lm("server.bytes_out_per_req", "B", "lower", wHot, wMixed),
	// server/client + HTTP.
	lm("client.transport_us_p50", "us", "lower", wHot, wMixed),
	lm("client.marshal_us", "us", "lower", wHot, wMixed),
	// cluster.
	lm("cluster.overhead_x", "x", "lower", wCluster),
	lm("cluster.ms_per_level", "ms", "lower", wCluster),
	lm("cluster.levels", "count", "lower", wCluster),
	lm("cluster.steals", "count", "lower", wCluster),
	lm("cluster.frontier_bytes_out", "B", "lower", wCluster),
	lm("cluster.frontier_bytes_in", "B", "lower", wCluster),
	lm("cluster.wire_bytes_per_state", "B", "lower", wCluster),
	lm("cluster.compute_share", "ratio", "higher", wCluster),
	lm("cluster.serialize_share", "ratio", "lower", wCluster),
	lm("cluster.wire_share", "ratio", "lower", wCluster),
	lm("cluster.steal_share", "ratio", "lower", wCluster),
	lm("cluster.stall_share", "ratio", "lower", wCluster),
	lm("cluster.tier_hit_ms", "ms", "lower", wCluster),
	lm("cluster.remote_cache_hits", "count", "higher", wCluster),
	lm("cluster.singleflight_waits", "count", "lower", wCluster),
	// obs: the program's own instrumentation budget.
	lm("obs.metrics_overhead_pct", "%", "lower", wSeq),
	lm("obs.trace_overhead_pct", "%", "lower", wSeq),
	// process and the benchmark itself.
	lm("proc.peak_rss_mb", "MB", "lower", allWorkloads...),
	lm("proc.heap_peak_mb", "MB", "lower", allWorkloads...),
	lm("proc.gc_cycles", "count", "lower", allWorkloads...),
	lm("proc.gc_cpu_share", "ratio", "lower", allWorkloads...),
	lm("bench.trace_overhead_pct", "%", "lower", allWorkloads...),
	lm("bench.pieces_vs_facade_ratio", "ratio", "lower", allWorkloads...),
	lm("bench.within_limit_share", "ratio", "higher", allWorkloads...),
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// findRoot locates the directory holding BENCHMARK.json: the working
// directory when run through benchmark/run.sh, its parent under
// `go run .` or `go test` inside benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// outDir is where run artifacts and trace files go (ignored by git).
func outDir(root string) string { return filepath.Join(root, "benchmark", "out") }

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// checkSpec reports every disagreement between BENCHMARK.json and the
// driver's own tables (workload names, metric names, units, direction).
func checkSpec(f *benchmarkFile, defs []*workload) error {
	var problems []string
	diff := func(kind string, file, own []metricDef) {
		have := map[string]metricDef{}
		for _, m := range file {
			have[m.Name] = m
		}
		for _, m := range own {
			got, ok := have[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				problems = append(problems, fmt.Sprintf("%s %q is not a valid name", kind, m.Name))
			case !ok:
				problems = append(problems, fmt.Sprintf("%s %q is missing from BENCHMARK.json", kind, m.Name))
			case got.Unit != m.Unit || got.Better != m.Better:
				problems = append(problems, fmt.Sprintf("%s %q: BENCHMARK.json says %s/%s, driver says %s/%s",
					kind, m.Name, got.Unit, got.Better, m.Unit, m.Better))
			}
			delete(have, m.Name)
		}
		for name := range have {
			problems = append(problems, fmt.Sprintf("%s %q is in BENCHMARK.json but the driver does not compute it", kind, name))
		}
	}
	diff("end-to-end metric", f.EndToEnd, endToEnd)
	own := make([]metricDef, len(perLayer))
	for i, m := range perLayer {
		own[i] = m.metricDef
	}
	diff("per-layer metric", f.PerLayer, own)
	for _, m := range f.EndToEnd {
		if m.Bound == nil {
			problems = append(problems, fmt.Sprintf("end-to-end metric %q has no bound", m.Name))
		}
	}
	names := map[string]bool{}
	for _, w := range f.Workloads {
		names[w.Name] = true
	}
	for _, d := range defs {
		if !names[d.name] {
			problems = append(problems, fmt.Sprintf("workload %q is missing from BENCHMARK.json", d.name))
		}
		delete(names, d.name)
	}
	for name := range names {
		problems = append(problems, fmt.Sprintf("workload %q is in BENCHMARK.json but the driver does not have it", name))
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("BENCHMARK.json and the driver disagree:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// bound returns the regression bound of an end-to-end metric.
func (f *benchmarkFile) bound(name string) float64 {
	for _, m := range f.EndToEnd {
		if m.Name == name && m.Bound != nil {
			return *m.Bound
		}
	}
	return 0
}
