// Package bench drives the paper's benchmark instances (the rows of
// Table 1) through the verification engines and records what each run
// found: states explored and peak decision-diagram nodes. Command
// gpobench renders these either as the paper-style text table or as the
// Table 1 count artifact, TABLE1.json at the repository root, which
// TestTable1Artifact regenerates and compares. Wall-clock judgement is
// benchmark/'s job, not this package's.
//
// Every engine run gets a fresh obs.Registry, so the peak-node gauges an
// Entry reads are exactly that run's and never bleed across engines.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"regexp"
	"time"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/verify"
)

// Engine name strings used in Entry.Engine. The stubborn engine is
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

// engines is the fixed order in which RunRow measures one instance.
var engines = []string{EngineExhaustive, EnginePO, EnginePOProviso, EngineSymbolic, EngineGPO}

// The caps every run is held to: explicit searches stop at maxStates
// states, the symbolic engine at maxNodes BDD nodes. No Table 1 row
// reaches either.
const (
	maxStates = 20_000_000
	maxNodes  = 3_000_000
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

// Config selects the instances of a benchmark run.
type Config struct {
	// Only restricts the run to instances whose "family(size)" name
	// matches this regular expression ("" = all); it composes with
	// MaxSize. An invalid pattern fails the run. The pattern is recorded
	// in the artifact so a filtered run is never mistaken for a full one.
	Only string
	// MaxSize skips rows above this size (0 = no cap).
	MaxSize int
	// Reduce applies the structural reduction pre-pass once per instance
	// and hands every engine the reduced net; the artifact records the
	// original and reduced net sizes per entry.
	Reduce bool
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
		if c.MaxSize > 0 && r.Size > c.MaxSize {
			continue
		}
		if only == nil || only.MatchString(InstanceName(r.Family, r.Size)) {
			out = append(out, r)
		}
	}
	return out, nil
}

// Schema identifies the Table 1 count artifact. Bump the version suffix
// on any incompatible change; Parse refuses every other value.
const Schema = "gpobench/v2"

// Report is the Table 1 count artifact that `gpobench -json` writes: one
// entry per (instance, engine) pair, in RunRow order. It holds result
// fields only, so regenerating it on an unchanged tree is byte-identical.
type Report struct {
	Schema string `json:"schema"`
	// Only is the instance-name filter the run was restricted to ("" =
	// every instance).
	Only string `json:"only,omitempty"`
	// Reduce marks a run with the structural reduction pre-pass: engines
	// explored the reduced nets, so its counts are not comparable with an
	// unreduced artifact's.
	Reduce  bool    `json:"reduce,omitempty"`
	Entries []Entry `json:"entries"`
}

// Entry is one engine run on one model instance.
type Entry struct {
	Family string `json:"family"`
	Size   int    `json:"size"`
	Engine string `json:"engine"`
	// States is states explored (GPN states for gpo, |reachable| for
	// symbolic).
	States int64 `json:"states"`
	// PeakNodes is the peak decision-diagram node count (BDD nodes for
	// symbolic, ZDD nodes for gpo; 0 for the explicit engines).
	PeakNodes int64 `json:"peak_nodes"`
	// Capped marks a run aborted at a state/node cap; States/PeakNodes
	// then hold the value reached.
	Capped bool `json:"capped,omitempty"`
	// Skipped marks an instance/engine pair that was not run (e.g. full
	// enumeration of a 10^6-state family).
	Skipped bool `json:"skipped,omitempty"`
	// Error holds a failure message; the numeric fields are then invalid.
	Error string `json:"error,omitempty"`
	// OrigPlaces/OrigTrans and ReducedPlaces/ReducedTrans record the net
	// sizes before and after the structural reduction pre-pass. Only set
	// on reduced runs (Report.Reduce).
	OrigPlaces    int `json:"orig_places,omitempty"`
	OrigTrans     int `json:"orig_trans,omitempty"`
	ReducedPlaces int `json:"reduced_places,omitempty"`
	ReducedTrans  int `json:"reduced_trans,omitempty"`
	// Wall is the run's wall-clock time, pre-pass included. It feeds the
	// -table1 text table only and is never serialised.
	Wall time.Duration `json:"-"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Parse decodes a report written by WriteJSON and refuses any schema but
// Schema.
func Parse(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: invalid report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: report schema %q, want %q", r.Schema, Schema)
	}
	return &r, nil
}

// Run measures every selected row with every engine and assembles the
// artifact.
func Run(c Config) (*Report, error) {
	rows, err := c.Rows()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: no Table 1 rows match only=%q max=%d", c.Only, c.MaxSize)
	}
	rep := &Report{Schema: Schema, Only: c.Only, Reduce: c.Reduce}
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
func RunRow(net *petri.Net, r Row, c Config) []Entry {
	out := make([]Entry, len(engines))
	for i, engine := range engines {
		out[i] = c.measure(net, r, engine)
	}
	return out
}

// outcome is what one engine run reports back to measure.
type outcome struct {
	states int64
	peak   int64 // peak decision-diagram nodes, 0 for explicit engines
	capped bool  // aborted at a state/node cap
	err    error
}

type runner func(net *petri.Net, reg *obs.Registry) outcome

// measure runs one engine on one instance inside a fresh registry.
func (c Config) measure(net *petri.Net, r Row, engine string) Entry {
	e := Entry{Family: r.Family, Size: r.Size, Engine: engine}
	var run runner
	switch engine {
	case EngineExhaustive:
		e.Skipped, run = r.SkipFull, runExhaustive
	case EnginePO:
		run = runPO(false)
	case EnginePOProviso:
		run = runPO(true)
	case EngineSymbolic:
		e.Skipped, run = r.SkipBDD, runSymbolic
	default:
		run = runGPO
	}
	if e.Skipped {
		return e
	}
	start := time.Now()
	runNet, out := net, outcome{}
	if c.Reduce {
		cert, err := reduce.Run(net, reduce.Options{})
		if err != nil {
			out.err = err
		} else {
			runNet = cert.Net()
			e.OrigPlaces, e.OrigTrans = net.NumPlaces(), net.NumTrans()
			e.ReducedPlaces, e.ReducedTrans = runNet.NumPlaces(), runNet.NumTrans()
		}
	}
	if out.err == nil {
		out = run(runNet, obs.New())
	}
	e.Wall = time.Since(start)
	e.States = out.states
	e.PeakNodes = out.peak
	e.Capped = out.capped
	if out.err != nil && !out.capped {
		e.Error = out.err.Error()
	}
	return e
}

// The runners call the engines directly rather than through verify: the
// partial-order columns run stubborn.SeedBest, with and without the
// proviso. verify serves best seed without the proviso (the PO column's
// counts) and first seed with it.

func runExhaustive(net *petri.Net, reg *obs.Registry) outcome {
	res, err := reach.Explore(net, reach.Options{MaxStates: maxStates, Metrics: reg})
	o := outcome{err: err, capped: errors.Is(err, reach.ErrStateLimit)}
	if res != nil {
		o.states = int64(res.States)
	}
	return o
}

func runPO(proviso bool) runner {
	return func(net *petri.Net, reg *obs.Registry) outcome {
		res, err := stubborn.Explore(net, stubborn.Options{
			MaxStates: maxStates,
			Seed:      stubborn.SeedBest,
			Proviso:   proviso,
			Metrics:   reg,
		})
		o := outcome{err: err, capped: errors.Is(err, stubborn.ErrStateLimit)}
		if res != nil {
			o.states = int64(res.States)
		}
		return o
	}
}

func runSymbolic(net *petri.Net, reg *obs.Registry) outcome {
	res, err := symbolic.Analyze(net, symbolic.Options{MaxNodes: maxNodes, Metrics: reg})
	o := outcome{err: err}
	if errors.Is(err, symbolic.ErrNodeLimit) {
		o.capped = true
		// The manager's defer exported its peak on the abort path.
		o.peak = reg.Gauge("symbolic.peak_nodes").Value()
	}
	if res != nil {
		o.states = int64(res.States)
		o.peak = int64(res.PeakNodes)
	}
	return o
}

func runGPO(net *petri.Net, reg *obs.Registry) outcome {
	rep, err := verify.CheckDeadlock(net, verify.Options{
		Engine:    verify.GPO,
		MaxStates: maxStates,
		Metrics:   reg,
	})
	o := outcome{err: err}
	if rep != nil {
		o.states = int64(rep.States)
		o.peak = reg.Gauge("zdd.peak_nodes").Value()
	}
	return o
}
