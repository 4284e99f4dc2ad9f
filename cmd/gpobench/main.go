// Command gpobench regenerates the evaluation artifacts of the paper:
// Table 1 (NSDP/ASAT/OVER/RW across all four engines) and the scaling
// behavior behind Figures 1 and 2. Paper-published values are printed
// beside the measured ones where the paper reports them.
//
// Usage:
//
//	gpobench -table1                 # all four families, paper sizes
//	gpobench -table1 -only nsdp      # one family
//	gpobench -figure 1 -max 12       # interleaving blow-up sweep
//	gpobench -figure 2 -max 12       # conflict-pair blow-up sweep
//	gpobench -all                    # everything
//	gpobench -json > TABLE1.json     # the Table 1 count artifact
//
// -json writes the count artifact (schema gpobench/v2, see
// internal/bench) to stdout: states and peak nodes per instance and
// engine, no wall clock, so an unchanged tree regenerates it byte for
// byte. Profiling, tracing and journaling a Table 1 instance are
// gpoverify's flags (gpoverify -only 'nsdp\(8\)' runs the same instances);
// wall-clock comparison is the benchmark/ harness's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/models"
	"repro/internal/reach"
	"repro/internal/stubborn"
	"repro/internal/verify"
)

func main() {
	var (
		doTable1  = flag.Bool("table1", false, "regenerate Table 1")
		only      = flag.String("only", "", "restrict Table 1 to instances whose name (e.g. 'nsdp(8)') matches this regexp")
		figure    = flag.Int("figure", 0, "regenerate the Figure 1 or Figure 2 sweep")
		maxN      = flag.Int("max", 0, "largest size: figure sweeps default to 10; caps Table 1 rows when set")
		doAll     = flag.Bool("all", false, "regenerate everything")
		jsonOut   = flag.Bool("json", false, "run Table 1 and write the count artifact (TABLE1.json) to stdout")
		reduceNet = flag.Bool("reduce", false, "apply the structural reduction pre-pass before every engine (recorded in the artifact; states are not comparable to unreduced runs)")
	)
	flag.Parse()

	cfg := bench.Config{Only: *only, MaxSize: *maxN, Reduce: *reduceNet}
	figMax := *maxN
	if figMax <= 0 {
		figMax = 10
	}

	if *doAll {
		*doTable1 = true
	}
	ran := false
	if *jsonOut {
		rep, err := bench.Run(cfg)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		ran = true
	}
	if *doTable1 {
		runTable1(cfg)
		ran = true
	}
	if *figure == 1 || *doAll {
		runFigure1(figMax)
		ran = true
	}
	if *figure == 2 || *doAll {
		runFigure2(figMax)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
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
		byEngine := make(map[string]bench.Entry, len(es))
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
func states(e bench.Entry) string {
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
func peak(e bench.Entry) string {
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

func wall(e bench.Entry) string {
	if e.Skipped || e.Error != "" {
		return "-"
	}
	return fmtDur(e.Wall)
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
