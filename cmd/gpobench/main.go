// Command gpobench regenerates the evaluation artifacts of the paper:
// Table 1 (NSDP/ASAT/OVER/RW across all four engines) and the scaling
// behavior behind Figures 1 and 2. Paper-published values are printed
// beside the measured ones where the paper reports them.
//
// Usage:
//
//	gpobench -table1                 # all four families, paper sizes
//	gpobench -table1 -family nsdp    # one family
//	gpobench -figure 1 -max 12       # interleaving blow-up sweep
//	gpobench -figure 2 -max 12       # conflict-pair blow-up sweep
//	gpobench -all                    # everything
//	gpobench -json -family rw        # machine-readable BENCH_<date>.json
//
// The exhaustive engine runs with -workers parallel BFS workers (default
// 0 = sequential: below 100 000 to 250 000 states the parallel explorer does
// not pay, see EXPERIMENTS.md); the worker count is recorded in the JSON
// artifact so runs stay comparable.
//
// Observability flags (see OBSERVABILITY.md): -json [-out file] writes
// the structured benchmark artifact, -ledger journals every measured
// engine run to a ledger/v1 JSONL file under its content-addressed run
// ID (browse with gpostat -history), -metrics dumps the program's metric
// registry, -trace records a flight-recorder trace of the engine runs
// (most useful with a single -only instance; summarize with gpotrace),
// -cpuprofile/-memprofile write pprof profiles, -pprof serves
// net/http/pprof, and -progress reports long runs on stderr.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/trace"
	"repro/internal/reach"
	"repro/internal/stubborn"
	"repro/internal/verify"
)

func main() {
	var (
		doTable1   = flag.Bool("table1", false, "regenerate Table 1")
		family     = flag.String("family", "all", "restrict Table 1 to one family (nsdp, asat, over, rw)")
		only       = flag.String("only", "", "restrict Table 1 to instances whose name (e.g. 'nsdp(8)') matches this regexp")
		figure     = flag.Int("figure", 0, "regenerate the Figure 1 or Figure 2 sweep")
		maxN       = flag.Int("max", 0, "largest size: figure sweeps default to 10; caps Table 1 rows when set")
		doAll      = flag.Bool("all", false, "regenerate everything")
		maxNodes   = flag.Int("max-nodes", 3_000_000, "BDD node cap for the symbolic engine")
		workers    = flag.Int("workers", 0, "parallel workers for the exhaustive engine (0 = sequential, the default; -workers N starts to pay between 100 000 and 250 000 states, see EXPERIMENTS.md)")
		jsonOut    = flag.Bool("json", false, "run Table 1 and write the machine-readable artifact")
		outFile    = flag.String("out", "", "artifact path for -json ('-' = stdout; default BENCH_<date>.json)")
		metricsOut = flag.String("metrics", "", "write the program's metric registry as JSON to this file ('-' = stderr)")
		ledgerOut  = flag.String("ledger", "", "append one ledger/v1 JSONL entry per measured engine run to this file (browse with gpostat -history)")
		traceOut   = flag.String("trace", "", "record a flight-recorder trace to this file (.jsonl/.ndjson = JSON lines, else Chrome/Perfetto trace JSON)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		progress   = flag.Bool("progress", false, "report long engine runs periodically on stderr")
		reduceNet  = flag.Bool("reduce", false, "apply the structural reduction pre-pass before every engine (recorded in the artifact; states are not comparable to unreduced runs)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gpobench: pprof server:", err)
			}
		}()
	}

	reg := obs.New()
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Options{})
	}
	cfg := bench.Config{
		Family:   *family,
		Only:     *only,
		MaxSize:  *maxN,
		MaxNodes: *maxNodes,
		Workers:  *workers,
		Reduce:   *reduceNet,
		Progress: *progress,
		Trace:    tracer,
	}
	if *ledgerOut != "" {
		l, err := ledger.Open(*ledgerOut, 0)
		if err != nil {
			fatal(err)
		}
		defer l.Close()
		cfg.Ledger = l
	}
	figMax := *maxN
	if figMax <= 0 {
		figMax = 10
	}

	if *doAll {
		*doTable1 = true
	}
	ran := false
	if *jsonOut {
		if err := runJSON(cfg, *outFile); err != nil {
			fatal(err)
		}
		ran = true
	}
	if *doTable1 {
		sp := reg.StartSpan("gpobench.table1")
		runTable1(cfg)
		sp.End()
		ran = true
	}
	if *figure == 1 || *doAll {
		sp := reg.StartSpan("gpobench.figure1")
		runFigure1(figMax)
		sp.End()
		ran = true
	}
	if *figure == 2 || *doAll {
		sp := reg.StartSpan("gpobench.figure2")
		runFigure2(figMax)
		sp.End()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	if *metricsOut != "" {
		if err := writeMetrics(reg, *metricsOut); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := trace.WriteFile(*traceOut, tracer.Dump()); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// runJSON runs the selected Table 1 rows and writes the structured
// artifact (see obs.BenchReport for the schema).
func runJSON(cfg bench.Config, out string) error {
	rep, err := bench.Run(cfg)
	if err != nil {
		return err
	}
	if out == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	if out == "" {
		out = obs.BenchFileName(time.Now())
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "gpobench: wrote", out)
	return nil
}

func writeMetrics(reg *obs.Registry, out string) error {
	if out == "-" {
		return reg.Flush(obs.JSONSink{W: os.Stderr, Indent: true})
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := reg.Flush(obs.JSONSink{W: f, Indent: true}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runTable1(cfg bench.Config) {
	fmt.Println("Table 1 — Results of Generalized Partial Order Analysis")
	fmt.Println("(paper-published values in parentheses on the second line of each row;")
	fmt.Println(" PO = stubborn sets, best seed; PO+prov adds the cycle proviso, which is")
	fmt.Println(" what removes all reduction on RW as the paper observed for SPIN+PO;")
	fmt.Println(" '-' = not run, '>' = aborted at cap)")
	fmt.Println()
	fmt.Printf("%-10s | %18s | %10s %10s %9s | %16s %9s | %10s %9s\n",
		"Problem", "States", "PO", "PO+prov", "time", "Symbolic peak", "time", "GPO", "time")
	fmt.Println(strings.Repeat("-", 118))

	rows, err := cfg.Rows()
	if err != nil {
		fatal(err)
	}
	for _, r := range rows {
		net, err := models.ByName(r.Family, r.Size)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		name := fmt.Sprintf("%s(%d)", strings.ToUpper(r.Family), r.Size)

		es := bench.RunRow(net, r, cfg)
		byEngine := make(map[string]obs.BenchEntry, len(es))
		for _, e := range es {
			byEngine[e.Engine] = e
		}
		full := byEngine[bench.EngineExhaustive]
		po := byEngine[bench.EnginePO]
		prov := byEngine[bench.EnginePOProviso]
		sym := byEngine[bench.EngineSymbolic]
		gpo := byEngine[bench.EngineGPO]

		fmt.Printf("%-10s | %10s %7s | %10s %10s %9s | %16s %9s | %10s %9s\n",
			name,
			states(full), paren(r.PaperFull),
			states(po), states(prov), wall(prov),
			peak(sym), wall(sym),
			states(gpo), wall(gpo))
		fmt.Printf("%-10s | %18s | %10s %10s %9s | %16s %9s | %10s %9s\n",
			"", "", paren(float64(r.PaperPO)), "", "", parenBDD(r.PaperBDD), "", paren(float64(r.PaperGPO)), "")
	}
	fmt.Println()
}

// states renders an entry's state count for the text table.
func states(e obs.BenchEntry) string {
	switch {
	case e.Skipped:
		return "-"
	case e.Error != "":
		return "err"
	case e.Capped:
		return fmt.Sprintf(">%d", e.States)
	}
	return fmt.Sprint(e.States)
}

// peak renders the symbolic engine's peak node count.
func peak(e obs.BenchEntry) string {
	switch {
	case e.Skipped:
		return "-"
	case e.Error != "":
		return "err"
	case e.Capped:
		return fmt.Sprintf(">%d", e.PeakNodes)
	}
	return fmt.Sprint(e.PeakNodes)
}

func wall(e obs.BenchEntry) string {
	if e.Skipped || e.Error != "" {
		return "-"
	}
	return fmtDur(time.Duration(e.WallNS))
}

func runFigure1(maxN int) {
	fmt.Println("Figure 1 — interleaving blow-up: n independent transitions")
	fmt.Printf("%4s %12s %12s %12s\n", "n", "full(2^n)", "PO(n+1)", "GPO")
	for n := 1; n <= maxN; n++ {
		net := models.Fig1(n)
		full, _ := reach.CountStates(net)
		po, _ := stubborn.Explore(net, stubborn.Options{})
		gpo, _ := verify.CheckDeadlock(net, verify.Options{Engine: verify.GPO})
		fmt.Printf("%4d %12d %12d %12d\n", n, full, po.States, gpo.States)
	}
	fmt.Println()
}

func runFigure2(maxN int) {
	fmt.Println("Figure 2 — conflict-place blow-up: n concurrently marked conflict pairs")
	fmt.Printf("%4s %12s %16s %12s\n", "n", "full(3^n)", "PO(2^(n+1)-1)", "GPO")
	for n := 1; n <= maxN; n++ {
		net := models.Fig2(n)
		full, _ := reach.CountStates(net)
		po, _ := stubborn.Explore(net, stubborn.Options{})
		gpo, _ := verify.CheckDeadlock(net, verify.Options{Engine: verify.GPO})
		fmt.Printf("%4d %12d %16d %12d\n", n, full, po.States, gpo.States)
	}
	fmt.Println()
}

func paren(v float64) string {
	if v == 0 {
		return ""
	}
	if v == float64(int64(v)) && v < 1e6 {
		return fmt.Sprintf("(%d)", int64(v))
	}
	return fmt.Sprintf("(%.3g)", v)
}

func parenBDD(v int) string {
	if v == 0 {
		return "(>24h)"
	}
	return fmt.Sprintf("(%d)", v)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpobench:", err)
	os.Exit(1)
}
