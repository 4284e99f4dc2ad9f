// Command gpoverify checks a safe Petri net for deadlocks or a safety
// property with a selectable analysis engine.
//
// Usage:
//
//	gpoverify -model nsdp -size 5                     # built-in model, GPO engine
//	gpoverify -net system.pn -engine partial-order    # .pn file, stubborn sets
//	gpoverify -model nsdp -size 4 -engine exhaustive -compare
//	gpoverify -net system.pn -safety "critA,critB"    # mutual exclusion check
//	gpoverify -model rw -size 9 -reduce               # structural reduction pre-pass
//	gpoverify -replay job.ckpt                        # deterministic checkpoint replay
//
// Engines: exhaustive, partial-order, symbolic, gpo (default), gpo-explicit,
// unfolding. With -compare, all engines run and their statistics are
// tabulated.
//
// With -replay, the checkpointed prefix in a ckpt/v2 file (written by
// gpod's durable jobs, DESIGN.md D11) is re-executed from scratch and
// must reproduce the stored snapshot bit for bit and the same flight-
// recorder event stream across independent re-executions; -trace-ref
// additionally compares event counts against a trace recorded when the
// original run suspended, and -trace writes the replay's own trace for
// gpotrace.
//
// Observability flags (see OBSERVABILITY.md): -metrics dumps the engine's
// metric registry as JSON, -ledger journals every engine run to a
// ledger/v1 JSONL file under its content-addressed run ID (browse with
// gpostat -history), -trace records a flight-recorder trace as Chrome
// trace JSON (opens in Perfetto / chrome://tracing; summarize with
// gpotrace), -progress reports long runs on
// stderr, -cpuprofile/-memprofile write pprof profiles, -pprof serves
// net/http/pprof.
package main

import (
	"encoding/json"
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
	"repro/internal/ckpt"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/proc"
	"repro/internal/stop"
	"repro/internal/structural"
	"repro/internal/verify"
)

func main() {
	var (
		netFile   = flag.String("net", "", "read the net from this .pn file")
		specFile  = flag.String("spec", "", "compile the net from this process-algebra spec file")
		model     = flag.String("model", "", "use a built-in model family: "+strings.Join(models.Families(), ", "))
		size      = flag.Int("size", 3, "parameter of the built-in model")
		only      = flag.String("only", "", "run over every Table 1 instance whose name (e.g. 'nsdp(8)') matches this regexp, instead of one -model/-size")
		engine    = flag.String("engine", "gpo", "engine: exhaustive, partial-order, symbolic, gpo, gpo-explicit, unfolding")
		safety    = flag.String("safety", "", "comma-separated places; check if all can be marked at once")
		stop      = flag.Bool("stop", false, "stop at the first deadlock/violation")
		maxStates = flag.Int("max-states", 0, "abort explicit searches beyond this many states")
		maxNodes  = flag.Int("max-nodes", 0, "abort symbolic searches beyond this many BDD nodes")
		workers   = flag.Int("workers", 0, "parallel workers for the exhaustive engine (0 = sequential, the default; with N >= 2 a run hands its first level of 8192 states to N workers, see EXPERIMENTS.md)")
		proviso   = flag.Bool("proviso", false, "apply the cycle proviso in the partial-order engine")
		reduceNet = flag.Bool("reduce", false, "apply the structural reduction pre-pass before the engine (witnesses are mapped back to the original net)")
		compare   = flag.Bool("compare", false, "run all engines and tabulate")
		explain   = flag.Bool("explain", true, "explain deadlock witnesses structurally (empty siphon)")

		replayCkpt = flag.String("replay", "", "re-execute the checkpointed prefix in this ckpt/v2 file deterministically and verify snapshot + event-stream equality")
		traceRef   = flag.String("trace-ref", "", "with -replay: reference flight-recorder trace to compare event counts against")
		ckptOut    = flag.String("ckpt", "", "suspend the run at a checkpoint: stop at the first engine boundary with at least -ckpt-states interned states and write a ckpt/v2 file here (re-execute with -replay)")
		ckptStates = flag.Int("ckpt-states", 1000, "with -ckpt: minimum interned states before suspending")

		metricsOut = flag.String("metrics", "", "write the engine's metric registry as JSON to this file ('-' = stderr)")
		ledgerOut  = flag.String("ledger", "", "append one ledger/v1 JSONL entry per engine run to this file (browse with gpostat -history)")
		traceOut   = flag.String("trace", "", "record a flight-recorder trace to this file as Chrome/Perfetto trace JSON")
		progress   = flag.Bool("progress", false, "report long engine runs periodically on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *replayCkpt != "" {
		if err := runReplay(*replayCkpt, *traceRef, *traceOut); err != nil {
			fatal(err)
		}
		return
	}

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
				fmt.Fprintln(os.Stderr, "gpoverify: pprof server:", err)
			}
		}()
	}

	var nets []*petri.Net
	if *only != "" {
		if *netFile != "" || *specFile != "" || *model != "" {
			fatal(fmt.Errorf("-only selects built-in Table 1 instances; drop -net/-spec/-model"))
		}
		rows, err := bench.Config{Only: *only}.Rows()
		if err != nil {
			fatal(err)
		}
		if len(rows) == 0 {
			fatal(fmt.Errorf("no Table 1 instance matches -only %q", *only))
		}
		for _, r := range rows {
			n, err := models.ByName(r.Family, r.Size)
			if err != nil {
				fatal(err)
			}
			nets = append(nets, n)
		}
	} else {
		net, err := loadNet(*netFile, *specFile, *model, *size)
		if err != nil {
			fatal(err)
		}
		nets = append(nets, net)
	}

	engines := []verify.Engine{}
	if *compare {
		engines = []verify.Engine{verify.Exhaustive, verify.PartialOrder,
			verify.Symbolic, verify.Unfolding, verify.GPO}
	} else {
		e, err := verify.ParseEngine(*engine)
		if err != nil {
			fatal(err)
		}
		engines = append(engines, e)
	}
	if err := ckptSingleRun(*ckptOut, len(nets), len(engines)); err != nil {
		fatal(err)
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Options{})
	}
	var ldg *ledger.Log
	if *ledgerOut != "" {
		var err error
		if ldg, err = ledger.Open(*ledgerOut, 0); err != nil {
			fatal(err)
		}
		defer ldg.Close()
	}

	for _, net := range nets {
		fmt.Printf("net %s: %d places, %d transitions, %d conflict clusters\n",
			net.Name(), net.NumPlaces(), net.NumTrans(), len(net.Clusters()))

		if tracer != nil {
			// With -only, later instances overwrite the shared name
			// tables; tracing is most useful on a single instance.
			tracer.SetMeta("net", net.Name())
			names := make([]string, net.NumTrans())
			for t := range names {
				names[t] = net.TransName(petri.Trans(t))
			}
			tracer.SetTransNames(names)
		}

		var bad []petri.Place
		if *safety != "" {
			for _, name := range strings.Split(*safety, ",") {
				p, ok := net.PlaceByName(strings.TrimSpace(name))
				if !ok {
					fatal(fmt.Errorf("no place named %q", name))
				}
				bad = append(bad, p)
			}
		}

		fmt.Printf("%-14s %-10s %10s %12s %12s %10s\n",
			"engine", "verdict", "states", "peak-bdd", "peak-sets", "time")
		runEngines(net, engines, bad, reg, runOpts{
			stop: *stop, maxStates: *maxStates, maxNodes: *maxNodes,
			workers: *workers, proviso: *proviso, reduce: *reduceNet,
			progress: *progress, explain: *explain, tracer: tracer,
			ledger: ldg, ckptOut: *ckptOut, ckptStates: *ckptStates,
		})
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

// ckptSingleRun refuses -ckpt unless exactly one run is selected: each
// run would suspend and write the file, the last overwriting the rest.
func ckptSingleRun(ckptOut string, nets, engines int) error {
	if ckptOut != "" && nets*engines > 1 {
		return fmt.Errorf("-ckpt suspends a single run, not %d nets × %d engines; select one net and drop -compare", nets, engines)
	}
	return nil
}

// runOpts carries the flag-derived knobs of one engine table.
type runOpts struct {
	stop      bool
	maxStates int
	maxNodes  int
	workers   int
	proviso   bool
	reduce    bool
	progress  bool
	explain   bool
	tracer    *trace.Tracer
	ledger    *ledger.Log
	// ckptOut, when set, suspends the run at the first boundary with at
	// least ckptStates interned states and writes a ckpt/v2 file there.
	ckptOut    string
	ckptStates int
}

// runEngines verifies one net with each selected engine and prints the
// result table rows.
func runEngines(net *petri.Net, engines []verify.Engine, bad []petri.Place, reg *obs.Registry, ro runOpts) {
	check := "deadlock"
	if len(bad) > 0 {
		check = "safety"
	}
	for _, eng := range engines {
		opts := verify.Options{
			Engine:      eng,
			StopAtFirst: ro.stop,
			MaxStates:   ro.maxStates,
			MaxNodes:    ro.maxNodes,
			Workers:     ro.workers,
			Proviso:     ro.proviso,
			Reduce:      ro.reduce,
			Metrics:     reg,
			Trace:       ro.tracer,
		}
		var endProgress func()
		if ro.progress {
			opts.Progress = new(obs.Counter)
			endProgress = reportProgress(eng.String(), opts.Progress, 2*time.Second)
		}
		var ckptSnap *verify.EngineSnapshot
		if ro.ckptOut != "" {
			opts.Ckpt = &verify.Checkpointer{
				Poll: func(states int, boundary int64) stop.Action {
					if states >= ro.ckptStates {
						return stop.Suspend
					}
					return stop.Continue
				},
				Save: func(sn *verify.EngineSnapshot) error {
					ckptSnap = sn
					return nil
				},
			}
		}
		var rep *verify.Report
		var err error
		startNS := time.Now().UnixNano()
		if len(bad) > 0 {
			rep, err = verify.CheckSafety(net, bad, opts)
		} else {
			rep, err = verify.CheckDeadlock(net, opts)
		}
		if endProgress != nil {
			endProgress()
		}
		if ro.ledger != nil {
			// Under the run ID the daemon gives the identical request, so
			// CLI and daemon history of one configuration line up.
			e := verify.LedgerEntry(verify.RunKey(net, check, bad, opts), net, check, opts, rep, err, startNS, time.Now().UnixNano())
			e.Source = "gpoverify"
			if lerr := ro.ledger.Append(e); lerr != nil {
				fmt.Fprintln(os.Stderr, "gpoverify: ledger:", lerr)
			}
		}
		if err != nil {
			fmt.Printf("%-14s error: %v\n", eng, err)
			continue
		}
		if rep.Checkpointed {
			if ckptSnap == nil {
				fmt.Printf("%-14s error: checkpoint suspension without a snapshot\n", eng)
				continue
			}
			f := &ckpt.File{Net: net, Check: check, Bad: bad, Opts: opts, Snap: ckptSnap}
			if err := ckpt.Write(ro.ckptOut, f); err != nil {
				fatal(err)
			}
			fmt.Printf("%-14s %-10s %10d %12s %12s %10v\n",
				eng, "suspended", rep.States, dash(rep.PeakBDD), dashF(rep.PeakSets), rep.Elapsed.Round(10e3))
			fmt.Printf("  checkpoint: %s (boundary %d, %d states; re-execute with -replay)\n",
				ro.ckptOut, ckptSnap.Boundary(), ckptSnap.States())
			continue
		}
		verdict := "ok"
		if rep.Deadlock {
			if len(bad) > 0 {
				verdict = "REACHABLE"
			} else {
				verdict = "DEADLOCK"
			}
		}
		fmt.Printf("%-14s %-10s %10d %12s %12s %10v\n",
			eng, verdict, rep.States, dash(rep.PeakBDD), dashF(rep.PeakSets), rep.Elapsed.Round(10e3))
		if ro.reduce {
			fmt.Printf("  reduced: -%d places, -%d transitions\n", rep.PlacesRemoved, rep.TransRemoved)
		}
		if rep.Witness != nil {
			fmt.Printf("  witness: %s\n", rep.Witness.String(net))
			if ro.explain && len(bad) == 0 {
				siphon := structural.DeadlockSiphon(net, rep.Witness)
				var names []string
				for _, p := range siphon {
					names = append(names, net.PlaceName(p))
				}
				fmt.Printf("  empty siphon: {%s}\n", strings.Join(names, ","))
			}
		}
	}
}

// reportProgress prints the run's count on stderr every interval from a
// goroutine. The returned func stops it and prints the final count,
// marked (done).
func reportProgress(label string, c *obs.Counter, every time.Duration) (end func()) {
	start := time.Now()
	line := func(suffix string) {
		n, el := c.Value(), time.Since(start)
		fmt.Fprintf(os.Stderr, "%s: %d states in %v (%.0f/s)%s\n",
			label, n, el.Round(time.Millisecond), float64(n)/el.Seconds(), suffix)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				line("")
			case <-stop:
				return
			}
		}
	}()
	return func() {
		close(stop)
		<-stopped
		line(" (done)")
	}
}

func writeMetrics(reg *obs.Registry, out string) error {
	b, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "-" {
		_, err = os.Stderr.Write(b)
		return err
	}
	return os.WriteFile(out, b, 0o666)
}

func loadNet(file, spec, model string, size int) (*petri.Net, error) {
	sources := 0
	for _, s := range []string{file, spec, model} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 {
		return nil, fmt.Errorf("use exactly one of -net, -spec, -model")
	}
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pnio.Parse(f)
	case spec != "":
		src, err := os.ReadFile(spec)
		if err != nil {
			return nil, err
		}
		parsed, err := proc.Parse(string(src))
		if err != nil {
			return nil, err
		}
		return proc.Compile(parsed)
	case model != "":
		return models.ByName(model, size)
	default:
		return nil, fmt.Errorf("need -net <file.pn>, -spec <file.proc> or -model <family>")
	}
}

func dash(v int) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprint(v)
}

func dashF(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.6g", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpoverify:", err)
	os.Exit(1)
}
