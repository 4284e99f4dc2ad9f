// Package bench drives the paper's benchmark instances (the rows of
// Table 1) through the verification engines and produces structured,
// machine-readable measurements. Command gpobench renders these either as
// the paper-style text table or as the BENCH_<date>.json artifact; tests
// use them to pin the exploration numbers.
//
// Every engine run gets a fresh obs.Registry, so the per-run counters in
// a BenchEntry are exactly that run's and never bleed across engines.
package bench

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/verify"
)

// Engine name strings used in BenchEntry.Engine. The stubborn engine is
// measured twice — with and without the cycle proviso — because the
// proviso is what removes all reduction on RW (the paper's SPIN+PO
// observation).
const (
	EngineExhaustive = "exhaustive"
	EnginePO         = "partial-order"
	EnginePOProviso  = "partial-order+proviso"
	EngineSymbolic   = "symbolic"
	EngineGPO        = "gpo"
)

// Row is one Table 1 line: a model instance plus the paper's published
// numbers (0 = not reported / not applicable).
type Row struct {
	Family    string
	Size      int
	PaperFull float64 // paper "States"
	PaperPO   int     // paper SPIN+PO states
	PaperBDD  int     // paper SMV peak BDD size (0 = >24h in the paper)
	PaperGPO  int     // paper GPO states
	SkipFull  bool    // too big to enumerate here
	SkipBDD   bool    // symbolic blow-up guard
}

// Table1 returns the paper's benchmark rows: NSDP, ASAT, OVER and RW at
// the published sizes.
func Table1() []Row {
	return []Row{
		{Family: "nsdp", Size: 2, PaperFull: 18, PaperPO: 12, PaperBDD: 1068, PaperGPO: 3},
		{Family: "nsdp", Size: 4, PaperFull: 322, PaperPO: 110, PaperBDD: 10018, PaperGPO: 3},
		{Family: "nsdp", Size: 6, PaperFull: 5778, PaperPO: 1422, PaperBDD: 52320, PaperGPO: 3},
		{Family: "nsdp", Size: 8, PaperFull: 103682, PaperPO: 19270, PaperBDD: 687263, PaperGPO: 3},
		{Family: "nsdp", Size: 10, PaperFull: 1.86e6, PaperPO: 239308, PaperBDD: 0, PaperGPO: 3},
		{Family: "asat", Size: 2, PaperFull: 88, PaperPO: 33, PaperBDD: 1587, PaperGPO: 8},
		{Family: "asat", Size: 4, PaperFull: 7822, PaperPO: 192, PaperBDD: 117667, PaperGPO: 14},
		{Family: "asat", Size: 8, PaperFull: 1.58e6, PaperPO: 3598, PaperBDD: 0, PaperGPO: 23, SkipBDD: true},
		{Family: "over", Size: 2, PaperFull: 65, PaperPO: 28, PaperBDD: 3511, PaperGPO: 6},
		{Family: "over", Size: 3, PaperFull: 519, PaperPO: 107, PaperBDD: 10203, PaperGPO: 7},
		{Family: "over", Size: 4, PaperFull: 4175, PaperPO: 467, PaperBDD: 11759, PaperGPO: 8},
		{Family: "over", Size: 5, PaperFull: 33460, PaperPO: 2059, PaperBDD: 24860, PaperGPO: 9},
		{Family: "rw", Size: 6, PaperFull: 72, PaperPO: 72, PaperBDD: 3689, PaperGPO: 2},
		{Family: "rw", Size: 9, PaperFull: 523, PaperPO: 523, PaperBDD: 9886, PaperGPO: 2},
		{Family: "rw", Size: 12, PaperFull: 4110, PaperPO: 4110, PaperBDD: 10037, PaperGPO: 2},
		{Family: "rw", Size: 15, PaperFull: 29642, PaperPO: 29642, PaperBDD: 10267, PaperGPO: 2},
	}
}

// Config selects the instances and caps of a benchmark run.
type Config struct {
	// Family restricts the run to one family; "" or "all" runs every
	// family.
	Family string
	// Only restricts the run to instances whose "family(size)" name
	// matches this regular expression ("" = all); it composes with Family
	// and MaxSize. An invalid pattern fails the run. The pattern is
	// recorded in the JSON artifact so filtered runs stay identifiable.
	Only string
	// MaxSize skips rows above this size (0 = no cap).
	MaxSize int
	// MaxStates caps explicit searches (0 = the 20M default).
	MaxStates int
	// MaxNodes caps the symbolic engine's BDD (0 = the 3M default).
	MaxNodes int
	// Workers runs the exhaustive engine's BFS with that many parallel
	// workers (0 = sequential); recorded in the JSON artifact so runs
	// stay comparable.
	Workers int
	// Reduce applies the structural reduction pre-pass once per instance
	// and hands every engine the reduced net. The pre-pass runs inside
	// the measured bench.run span (its cost is part of the run), run IDs
	// are computed on the original net with the Reduce flag set (the same
	// address the daemon gives the request), and the artifact records the
	// original and reduced net sizes per entry.
	Reduce bool
	// Progress, if true, prints periodic per-run progress to stderr.
	Progress bool
	// Trace, if non-nil, receives flight-recorder events from every engine
	// run (see OBSERVABILITY.md "Trace events"). One tracer spans the whole
	// benchmark; the exporter's track names distinguish engines only by
	// their per-engine track labels, so tracing is most useful with a
	// single-instance Only filter. Nil costs nothing.
	Trace *trace.Tracer
	// Ledger, if non-nil, journals every measured engine run as one
	// ledger/v1 entry under the same content-addressed run ID the daemon
	// would give the equivalent request, so benchmark history joins CLI
	// and daemon history (gpostat -history). Nil costs nothing.
	Ledger *ledger.Log
}

func (c Config) maxStates() int {
	if c.MaxStates > 0 {
		return c.MaxStates
	}
	return 20_000_000
}

func (c Config) maxNodes() int {
	if c.MaxNodes > 0 {
		return c.MaxNodes
	}
	return 3_000_000
}

func (c Config) selects(r Row, only *regexp.Regexp) bool {
	if c.Family != "" && c.Family != "all" && c.Family != r.Family {
		return false
	}
	if c.MaxSize > 0 && r.Size > c.MaxSize {
		return false
	}
	return only == nil || only.MatchString(InstanceName(r.Family, r.Size))
}

// InstanceName is the canonical "family(size)" instance name the Only
// filter matches against, e.g. "nsdp(8)".
func InstanceName(family string, size int) string {
	return fmt.Sprintf("%s(%d)", family, size)
}

// Rows returns the Table 1 rows selected by the config. It fails only on
// an invalid Only pattern.
func (c Config) Rows() ([]Row, error) {
	var only *regexp.Regexp
	if c.Only != "" {
		var err error
		if only, err = regexp.Compile(c.Only); err != nil {
			return nil, fmt.Errorf("bench: invalid -only pattern: %w", err)
		}
	}
	var out []Row
	for _, r := range Table1() {
		if c.selects(r, only) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Run measures every selected row with every engine and assembles the
// machine-readable report.
func Run(c Config) (*obs.BenchReport, error) {
	rep := &obs.BenchReport{
		Schema:    obs.BenchSchema,
		Date:      time.Now().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Workers:   c.Workers,
		Only:      c.Only,
		Reduce:    c.Reduce,
		Host: &obs.BenchHost{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
	}
	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: no Table 1 rows match family=%q only=%q max=%d", c.Family, c.Only, c.MaxSize)
	}
	for _, r := range rows {
		net, err := models.ByName(r.Family, r.Size)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, RunRow(net, r, c)...)
	}
	return rep, nil
}

// RunRow measures one model instance with every engine, in the fixed
// order exhaustive, partial-order, partial-order+proviso, symbolic, gpo.
func RunRow(net *petri.Net, r Row, c Config) []obs.BenchEntry {
	return []obs.BenchEntry{
		c.measure(net, r, EngineExhaustive, r.SkipFull, runExhaustive),
		c.measure(net, r, EnginePO, false, runPO(false)),
		c.measure(net, r, EnginePOProviso, false, runPO(true)),
		c.measure(net, r, EngineSymbolic, r.SkipBDD, runSymbolic),
		c.measure(net, r, EngineGPO, false, runGPO),
	}
}

// outcome is what one engine run reports back to measure.
type outcome struct {
	states   int64
	peak     int64 // peak decision-diagram nodes, 0 for explicit engines
	deadlock bool  // a reachable marking enables no transition
	capped   bool  // aborted at a state/node cap
	err      error
}

type runner func(net *petri.Net, c Config, reg *obs.Registry, prog *obs.Progress) outcome

// measure runs one engine on one instance inside a fresh registry and a
// "bench.run" span, and folds span timing, memory deltas and the
// registry's counters and gauges into the entry.
func (c Config) measure(net *petri.Net, r Row, engine string, skip bool, run runner) obs.BenchEntry {
	e := obs.BenchEntry{Family: r.Family, Size: r.Size, Engine: engine}
	if skip {
		e.Skipped = true
		return e
	}
	opts := c.engineOptions(engine)
	e.RunID = verify.RunID(net, "deadlock", nil, opts)
	reg := obs.New()
	var prog *obs.Progress
	if c.Progress {
		prog = &obs.Progress{
			Label:    fmt.Sprintf("%s(%d)/%s", r.Family, r.Size, engine),
			Every:    250_000,
			Interval: 2 * time.Second,
		}
		defer prog.Done()
	}
	startNS := time.Now().UnixNano()
	sp := reg.StartSpan("bench.run")
	runNet, out := net, outcome{}
	if c.Reduce {
		cert, rerr := reduce.Run(net, reduce.Options{Metrics: reg})
		if rerr != nil {
			out.err = rerr
		} else {
			runNet = cert.Net()
			e.OrigPlaces, e.OrigTrans = net.NumPlaces(), net.NumTrans()
			e.ReducedPlaces, e.ReducedTrans = runNet.NumPlaces(), runNet.NumTrans()
		}
	}
	if out.err == nil {
		out = run(runNet, c, reg, prog)
	}
	sp.End()
	endNS := time.Now().UnixNano()

	snap := reg.Snapshot()
	for _, rec := range snap.Spans {
		if rec.Name == "bench.run" {
			e.WallNS = rec.WallNS
			e.Allocs = rec.Mallocs
			e.AllocBytes = rec.AllocBytes
		}
	}
	if len(snap.Counters)+len(snap.Gauges) > 0 {
		e.Counters = make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
		for k, v := range snap.Counters {
			e.Counters[k] = v
		}
		for k, v := range snap.Gauges {
			e.Counters[k] = v
		}
	}
	e.States = out.states
	e.PeakNodes = out.peak
	e.Capped = out.capped
	if out.err != nil && !out.capped {
		e.Error = out.err.Error()
	}
	c.journal(net, e, opts, out, startNS, endNS)
	return e
}

// engineOptions reconstructs the verify.Options the measured run is
// equivalent to, for content addressing: the mapping mirrors the
// runners below (the stubborn engine is verify.PartialOrder with or
// without the proviso; explicit engines share the MaxStates cap).
func (c Config) engineOptions(engine string) verify.Options {
	var o verify.Options
	switch engine {
	case EngineExhaustive:
		o = verify.Options{Engine: verify.Exhaustive, MaxStates: c.maxStates(), Workers: c.Workers}
	case EnginePO:
		o = verify.Options{Engine: verify.PartialOrder, MaxStates: c.maxStates()}
	case EnginePOProviso:
		o = verify.Options{Engine: verify.PartialOrder, Proviso: true, MaxStates: c.maxStates()}
	case EngineSymbolic:
		o = verify.Options{Engine: verify.Symbolic, MaxNodes: c.maxNodes()}
	default:
		o = verify.Options{Engine: verify.GPO, MaxStates: c.maxStates()}
	}
	o.Reduce = c.Reduce
	return o
}

// journal appends the run's ledger entry (no-op without a Ledger). The
// entry keeps the bench engine label (so "partial-order+proviso" stays
// distinguishable in history listings) but shares the daemon's content
// address, options and verdict encoding.
func (c Config) journal(net *petri.Net, e obs.BenchEntry, opts verify.Options, out outcome, startNS, endNS int64) {
	if c.Ledger == nil {
		return
	}
	le := ledger.Entry{
		RunID:       e.RunID,
		Source:      "gpobench",
		Net:         net.Name(),
		Engine:      e.Engine,
		Check:       "deadlock",
		Proviso:     opts.Proviso,
		Reduce:      opts.Reduce,
		MaxStates:   opts.MaxStates,
		MaxNodes:    opts.MaxNodes,
		Workers:     opts.Workers,
		StartUnixNS: startNS,
		EndUnixNS:   endNS,
		WallNS:      endNS - startNS,
	}
	switch {
	case e.Error != "":
		le.Status = "error"
		le.AbortReason = e.Error
	case e.Capped:
		le.Status = "aborted"
		le.AbortReason = "capped"
		le.States = e.States
		le.PeakBDD = e.PeakNodes
	default:
		le.Status = "ok"
		le.Deadlock = out.deadlock
		le.States = e.States
		le.PeakBDD = e.PeakNodes
		le.Complete = true
	}
	le.Metrics = e.Counters
	_ = c.Ledger.Append(le) // best-effort: a full disk must not fail the benchmark
}

func runExhaustive(net *petri.Net, c Config, reg *obs.Registry, prog *obs.Progress) outcome {
	res, err := reach.Explore(net, reach.Options{
		MaxStates: c.maxStates(),
		Workers:   c.Workers,
		Metrics:   reg,
		Progress:  prog,
		Trace:     c.Trace,
	})
	o := outcome{err: err}
	if errors.Is(err, reach.ErrStateLimit) {
		o.capped = true
	}
	if res != nil {
		o.states = int64(res.States)
		o.deadlock = res.Deadlock
	}
	return o
}

func runPO(proviso bool) runner {
	return func(net *petri.Net, c Config, reg *obs.Registry, prog *obs.Progress) outcome {
		res, err := stubborn.Explore(net, stubborn.Options{
			MaxStates: c.maxStates(),
			Seed:      stubborn.SeedBest,
			Proviso:   proviso,
			Metrics:   reg,
			Progress:  prog,
			Trace:     c.Trace,
		})
		o := outcome{err: err}
		if errors.Is(err, stubborn.ErrStateLimit) {
			o.capped = true
		}
		if res != nil {
			o.states = int64(res.States)
			o.deadlock = res.Deadlock
		}
		return o
	}
}

func runSymbolic(net *petri.Net, c Config, reg *obs.Registry, prog *obs.Progress) outcome {
	res, err := symbolic.Analyze(net, symbolic.Options{
		MaxNodes: c.maxNodes(),
		Metrics:  reg,
		Progress: prog,
		Trace:    c.Trace,
	})
	o := outcome{err: err}
	if errors.Is(err, symbolic.ErrNodeLimit) {
		o.capped = true
		// The manager's defer exported its peak on the abort path.
		o.peak = reg.Gauge("symbolic.peak_nodes").Value()
	}
	if res != nil {
		o.states = int64(res.States)
		o.peak = int64(res.PeakNodes)
		o.deadlock = res.Deadlock
	}
	return o
}

func runGPO(net *petri.Net, c Config, reg *obs.Registry, prog *obs.Progress) outcome {
	rep, err := verify.CheckDeadlock(net, verify.Options{
		Engine:    verify.GPO,
		MaxStates: c.maxStates(),
		Metrics:   reg,
		Progress:  prog,
		Trace:     c.Trace,
	})
	o := outcome{err: err}
	if rep != nil {
		o.states = int64(rep.States)
		o.peak = reg.Gauge("zdd.peak_nodes").Value()
		o.deadlock = rep.Deadlock
	}
	return o
}
