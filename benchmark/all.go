package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostStamp says where an artifact was recorded. -compare refuses to call
// a row a regression when the stamps of its two artifacts differ.
type hostStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() hostStamp {
	return hostStamp{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// metricRuns is one (metric, workload) row of an artifact: the value of
// every run, their median and quartiles.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type workloadRuns struct {
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]metricRuns `json:"end_to_end"`
	PerLayer  map[string]metricRuns `json:"per_layer,omitempty"`
}

// artifact is benchmark/out/run-<seed>.json.
type artifact struct {
	Schema     string                  `json:"schema"` // "gpo-benchmark/v1"
	Host       hostStamp               `json:"host"`
	Commit     string                  `json:"commit"`
	Seed       int64                   `json:"seed"`
	RunSeconds float64                 `json:"run_seconds"`
	Runs       int                     `json:"runs"`
	Bounds     map[string]float64      `json:"bounds"`
	Workloads  map[string]workloadRuns `json:"workloads"`
}

// runChild runs one workload in a child process of this binary and
// returns its result line. The child's human-readable output passes
// through.
func runChild(name string, seed int64, seconds float64, trace bool) (*resultLine, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	fmt.Println(strings.TrimSuffix(text, last))
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil {
		return &line, fmt.Errorf("%s: %w", name, runErr)
	}
	return &line, nil
}

func summarise(unit string, values []float64) metricRuns {
	q1, q3 := quartiles(values)
	return metricRuns{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3}
}

// gitCommit is best effort: the driver's checkouts are not repositories.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runAll(root string, spec *benchmarkFile, seed int64, seconds float64, trace bool, runs int) error {
	if runs < 1 {
		runs = 1
	}
	art := artifact{
		Schema: "gpo-benchmark/v1", Host: thisHost(), Commit: gitCommit(root), Seed: seed,
		RunSeconds: seconds, Runs: runs,
		Bounds: map[string]float64{}, Workloads: map[string]workloadRuns{},
	}
	for _, m := range spec.EndToEnd {
		art.Bounds[m.Name] = *m.Bound
	}
	var failed []string
	collect := func(name string, traced bool, into map[string]metricRuns, wr *workloadRuns) {
		values := map[string][]float64{}
		units := map[string]string{}
		for r := 0; r < runs; r++ {
			line, err := runChild(name, seed, seconds, traced)
			if err != nil {
				failed = append(failed, err.Error())
			}
			if line == nil {
				continue
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			for m, v := range line.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
		}
		for m, v := range values {
			into[m] = summarise(units[m], v)
		}
	}
	for _, w := range spec.Workloads {
		wr := workloadRuns{EndToEnd: map[string]metricRuns{}}
		collect(w.Name, false, wr.EndToEnd, &wr)
		if trace {
			wr.PerLayer = map[string]metricRuns{}
			collect(w.Name, true, wr.PerLayer, &wr)
		}
		art.Workloads[w.Name] = wr
	}

	printArtifactTable(spec, &art)
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir(root), fmt.Sprintf("run-%d.json", seed))
	data, err := json.MarshalIndent(&art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed runs:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// spreadOf is the interquartile range as a share of the median, the
// run-to-run spread the acceptance rule is stated in.
func spreadOf(m metricRuns) float64 {
	if len(m.Values) < 2 {
		return 0
	}
	return ratio(m.Q3-m.Q1, m.Median)
}

func printArtifactTable(spec *benchmarkFile, art *artifact) {
	fmt.Printf("# host: %d CPUs, GOMAXPROCS %d, %s %s/%s; commit %s; seed %d; %d run(s) of %gs per workload\n",
		art.Host.NumCPU, art.Host.GOMAXPROCS, art.Host.GoVersion, art.Host.GOOS, art.Host.GOARCH, art.Commit, art.Seed, art.Runs, art.RunSeconds)
	fmt.Printf("%-18s %-20s %14s %-5s %9s\n", "workload", "metric", "median", "unit", "spread")
	for _, w := range spec.Workloads {
		wr := art.Workloads[w.Name]
		for _, m := range spec.EndToEnd {
			row := wr.EndToEnd[m.Name]
			spread := "n/a"
			if len(row.Values) > 1 {
				spread = fmt.Sprintf("%.1f%%", spreadOf(row)*100)
			}
			fmt.Printf("%-18s %-20s %14.6g %-5s %9s\n", w.Name, m.Name, row.Median, row.Unit, spread)
		}
	}
}

// compareArtifacts applies each end-to-end metric's bound to every
// (metric, workload) row of two artifacts: B may not be worse than A by
// more than the bound. A row whose recorded run-to-run spread exceeds its
// bound is unresolved, not unchanged. Rows of artifacts from different
// hosts are never called regressions.
func compareArtifacts(pathA, pathB string) error {
	load := func(path string) (*artifact, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var a artifact
		if err := json.Unmarshal(data, &a); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if a.Schema != "gpo-benchmark/v1" {
			return nil, fmt.Errorf("%s: schema %q, want gpo-benchmark/v1", path, a.Schema)
		}
		return &a, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	sameHost := a.Host == b.Host
	if !sameHost {
		fmt.Printf("# different hosts (%+v vs %+v): ratios are shown, no row is called a regression\n", a.Host, b.Host)
	}
	fmt.Printf("# A = %s (commit %s, seed %d, %d runs); B = %s (commit %s, seed %d, %d runs)\n",
		pathA, a.Commit, a.Seed, a.Runs, pathB, b.Commit, b.Seed, b.Runs)
	fmt.Printf("%-18s %-20s %13s %13s %-5s %8s %7s %8s  %s\n", "workload", "metric", "A (base)", "B", "unit", "B/A", "bound", "spread", "verdict")
	regressions, unresolved := 0, 0
	for _, wname := range allWorkloads {
		wa, okA := a.Workloads[wname]
		wb, okB := b.Workloads[wname]
		if !okA || !okB {
			continue
		}
		for _, m := range endToEnd {
			ra, rb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(ra.Values) == 0 || len(rb.Values) == 0 {
				continue
			}
			bound := a.Bounds[m.Name]
			worse := ratio(rb.Median-ra.Median, ra.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(spreadOf(ra), spreadOf(rb))
			verdict := "ok"
			switch {
			case !sameHost:
				verdict = "cross-host"
			case spread > bound && m.Name != "setup_s":
				// setup_s is a fraction of a second of memory-bound work; its
				// spread is recorded but, as in the gate, only its median
				// is held to the bound.
				verdict = "UNRESOLVED (spread exceeds the bound)"
				unresolved++
			case worse > bound:
				verdict = fmt.Sprintf("REGRESSION (worse by %.1f%%)", worse*100)
				regressions++
			}
			sp := "n/a"
			if len(ra.Values) > 1 || len(rb.Values) > 1 {
				sp = fmt.Sprintf("%.1f%%", spread*100)
			}
			fmt.Printf("%-18s %-20s %13.6g %13.6g %-5s %8.3f %6.0f%% %8s  %s\n",
				wname, m.Name, ra.Median, rb.Median, ra.Unit, ratio(rb.Median, ra.Median), bound*100, sp, verdict)
		}
		if wb.Failed > 0 || wa.Failed > 0 {
			fmt.Printf("%-18s failed operations: A %d of %d, B %d of %d\n", wname, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			if wb.Failed > wa.Failed && sameHost {
				regressions++
			}
		}
	}
	fmt.Printf("# %d regression(s), %d unresolved row(s)\n", regressions, unresolved)
	if regressions > 0 || unresolved > 0 {
		return fmt.Errorf("%d regression(s), %d unresolved row(s)", regressions, unresolved)
	}
	return nil
}
