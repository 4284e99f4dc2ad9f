// Command benchmark is the one performance instrument of this
// repository: seven named workloads over the verifier as it stands (the
// verify façade, an in-process gpod on a loopback listener, a three-peer
// loopback cluster), end-to-end metrics with tracing off, per-layer
// metrics from a separate traced run, and every verdict checked against
// an answer that does not come from the engine being timed.
//
//	bash benchmark/run.sh --workload gpo --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -all -seed 1 [-runs 5] [-trace 1]
//	bash benchmark/run.sh -compare benchmark/out/run-1.json benchmark/out/run-2.json
//	bash benchmark/run.sh -list
//
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md in this directory says why each is there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func workloads() []*workload {
	var all []*workload
	all = append(all, batchWorkloads...)
	all = append(all, serveWorkloads...)
	all = append(all, fleetWorkloads...)
	return all
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// resultLine is the last line of a workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	all      bool
	runs     int
	list     bool
	compare  bool
	args     []string
}

func main() {
	var o options
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its metrics (last line: one JSON object)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: operation order, request sequence")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	flag.BoolVar(&o.all, "all", false, "run every workload in a child process and write benchmark/out/run-<seed>.json")
	flag.IntVar(&o.runs, "runs", 1, "with -all: runs per workload; medians and quartiles are recorded")
	flag.BoolVar(&o.list, "list", false, "print the workload and metric names of BENCHMARK.json")
	flag.BoolVar(&o.compare, "compare", false, "compare two run-<seed>.json artifacts given as arguments")
	flag.Parse()
	o.trace, o.args = *traceFlag == 1, flag.Args()
	if err := dispatch(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare needs two artifact paths")
		}
		return compareArtifacts(o.args[0], o.args[1])
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if err := checkSpec(spec, workloads()); err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	switch {
	case o.list:
		printList(spec)
		return nil
	case o.all:
		return runAll(root, spec, o.seed, o.seconds, o.trace, o.runs)
	case o.workload == "":
		return fmt.Errorf("give -workload <name>, -all, -list or -compare (workloads: %s)", strings.Join(allWorkloads, ", "))
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (workloads: %s)", o.workload, strings.Join(allWorkloads, ", "))
	}
	exp, err := loadExpected(expectedJSON)
	if err != nil {
		return err
	}
	rep, err := runWorkload(w, runConfig{seed: o.seed, seconds: o.seconds, trace: o.trace}, exp, root)
	if err != nil {
		return err
	}
	printReport(rep, w)
	line, err := json.Marshal(resultLine{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their check", w.name, rep.Failed, rep.Attempted)
	}
	return nil
}

// printReport is the human-readable part: every metric by name and unit,
// and every class with its sample count and quartiles.
func printReport(rep *report, w *workload) {
	kind := "end-to-end (tracing off)"
	if rep.Traced {
		kind = "per-layer (traced run; 0 = the layer is idle on this workload)"
	}
	fmt.Printf("# workload %s: %d rounds, %d operations, %d failed, %d over the limit of %v per operation\n", rep.Workload, rep.Rounds, rep.Attempted, rep.Failed, rep.Slow, w.limit)
	if rep.Disturbed > 0 {
		fmt.Printf("# %d of %d rounds had more than %.0f%% of their CPU time stolen by the hypervisor; their operations are checked, their timings left out\n", rep.Disturbed, rep.Rounds, maxStealShare*100)
	}
	for _, p := range rep.Problems {
		fmt.Printf("# %s\n", p)
	}
	fmt.Printf("# %s\n", kind)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-36s %16.6g %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	fmt.Println("# class                                   n   median ms       q1 ms       q3 ms      min ms")
	for _, c := range rep.Classes {
		fmt.Printf("%-38s %5d %11.3f %11.3f %11.3f %11.3f\n", c.Name, c.N, c.Median, c.Q1, c.Q3, c.Min)
	}
	if rep.Traced {
		fmt.Println("# self time by layer over the traced rounds (span minus its child spans):")
		layers := make([]string, 0, len(rep.SelfMS))
		for l := range rep.SelfMS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Printf("#   %-20s %12.1f ms\n", l, rep.SelfMS[l])
		}
	} else {
		beyond := float64(rep.Attempted-rep.Failed) * (100 - w.tail) / 100
		fmt.Printf("# verdict_tail_ms is the %gth percentile of %d operations (%.0f samples beyond it)\n", w.tail, rep.Attempted-rep.Failed, beyond)
	}
}

func printList(spec *benchmarkFile) {
	fmt.Println("workloads:")
	for _, w := range spec.Workloads {
		fmt.Printf("  %-18s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (every workload, tracing off):")
	for _, m := range spec.EndToEnd {
		fmt.Printf("  %-36s %-6s %s is better, may worsen by %.0f%%\n", m.Name, m.Unit, m.Better, *m.Bound*100)
	}
	fmt.Println("per-layer metrics (traced run; filled on the listed workloads, 0 elsewhere):")
	for _, m := range perLayer {
		fmt.Printf("  %-36s %-6s %s\n", m.Name, m.Unit, strings.Join(m.On, ", "))
	}
}
