// Package verify is the unified façade over the four analysis engines the
// paper compares: exhaustive explicit reachability, stubborn-set
// partial-order reduction, OBDD-based symbolic reachability, and the
// paper's generalized partial-order analysis (with either the explicit or
// the ZDD family representation). It runs deadlock and safety checks and
// returns engine-comparable statistics — the columns of the paper's
// Table 1.
package verify

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/stop"
	"repro/internal/structural/reduce"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/unfold"
	"repro/internal/zdd"
)

// Engine selects the analysis technique.
type Engine int

const (
	// Exhaustive enumerates the complete reachability graph (Section 2.2;
	// the "States" column).
	Exhaustive Engine = iota
	// PartialOrder uses stubborn-set reduction (Section 2.3; SPIN+PO).
	PartialOrder
	// Symbolic uses OBDD-based reachability (Section 2.4; SMV).
	Symbolic
	// GPO is the paper's generalized partial-order analysis with the ZDD
	// family representation (Section 3).
	GPO
	// GPOExplicit is GPO with the explicit family representation; it
	// computes identical results and is practical only for small nets.
	GPOExplicit
	// Unfolding builds a McMillan complete finite prefix and checks
	// deadlock on it (our extension: the other classical partial-order
	// technique of the paper's era, cf. its reference [13]).
	Unfolding
)

// engine is one row of the engine table: what check needs to know about
// an engine, and the adapter that runs it.
type engine struct {
	name string
	// native engines evaluate the bad-marking predicate themselves; the
	// others check safety as deadlock on petri.WithSafetyMonitor's net.
	native bool
	// ckpt engines have deterministic boundaries and take Options.Ckpt
	// and Options.Resume.
	ckpt bool
	// run translates Options into the engine's own options and its result
	// into a Report. It returns the partial Report alongside the engine's
	// error whenever the engine has one; check classifies the error.
	run func(n *petri.Net, g goal, o Options) (*Report, error)
}

// engines is the engine table, indexed by Engine.
var engines = [...]engine{
	Exhaustive:   {"exhaustive", true, true, runReach},
	PartialOrder: {"partial-order", false, false, runStubborn},
	Symbolic:     {"symbolic", true, false, runSymbolic},
	GPO:          {"gpo", false, true, runCore[zdd.Node](zdd.NewAlgebra)},
	GPOExplicit:  {"gpo-explicit", false, true, runCore[*family.Family](family.NewAlgebra)},
	Unfolding:    {"unfolding", false, false, runUnfold},
}

func (e Engine) valid() bool { return e >= 0 && int(e) < len(engines) }

// String returns the engine's short display name.
func (e Engine) String() string {
	if !e.valid() {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return engines[e].name
}

// ParseEngine maps a name (as printed by String) back to an Engine.
func ParseEngine(s string) (Engine, error) {
	for e := range engines {
		if engines[e].name == s {
			return Engine(e), nil
		}
	}
	return 0, fmt.Errorf("verify: unknown engine %q", s)
}

// Options configures a check.
type Options struct {
	Engine Engine
	// Ctx, if non-nil, is threaded to the selected engine, which polls it
	// cooperatively: once it is cancelled (deadline exceeded, client
	// disconnect) the exploration stops within a bounded number of steps
	// and the check returns a partial Report with Aborted set instead of
	// an error. A nil Ctx never stops anything and costs one predictable
	// branch per unit of work.
	Ctx context.Context
	// StopAtFirst halts at the first deadlock (or bad state) found.
	StopAtFirst bool
	// MaxStates bounds explicit searches; MaxNodes bounds symbolic ones.
	MaxStates int
	MaxNodes  int
	// Workers, when > 0, runs the exhaustive engine's BFS with that many
	// parallel workers (see reach.Options.Workers); results are identical
	// to the sequential search. Other engines ignore it.
	Workers int
	// Proviso applies the cycle proviso in the partial-order engine.
	Proviso bool
	// Reduce applies the structural reduction pre-pass
	// (internal/structural/reduce) before the selected engine: the net is
	// shrunk by sound, verdict-preserving rules and the engine explores
	// the reduced net; verdict and witness are mapped back to the input
	// net via the reduction certificate. Result-determining (the explored
	// state counts change), so it participates in RunKey.
	Reduce bool
	// Metrics, if non-nil, is handed to the selected engine, which fills
	// it with its package-prefixed counters, gauges, histograms and spans
	// (see OBSERVABILITY.md). Nil costs nothing.
	Metrics *obs.Registry
	// Progress, if non-nil, gains one from the selected engine per
	// unit of work (state, event or iteration).
	Progress *obs.Counter
	// Trace, if non-nil, is handed to the selected engine, which records
	// flight-recorder events on it (states, firings, phase brackets,
	// aborts; see OBSERVABILITY.md "Trace events"). Nil costs nothing.
	Trace *trace.Tracer
	// Ckpt, if non-nil, enables checkpointing on the checkpoint-capable
	// engines (Exhaustive, GPO, GPOExplicit): the Checkpointer is polled
	// at every engine boundary and may save a snapshot or suspend the
	// run (the check then returns a partial Report with Checkpointed
	// set). Other engines reject it with ErrCkptUnsupported. Like
	// Metrics and Trace, checkpointing only observes and suspends — it
	// never changes what an uninterrupted run computes, so it does not
	// participate in RunKey.
	Ckpt *Checkpointer
	// Resume, if non-nil, restores the check from an engine snapshot
	// instead of starting fresh; the snapshot's engine must match
	// Options.Engine (for safety checks on monitoring engines it is a
	// snapshot of the deterministic monitored net). The resumed run's
	// Report is bit-identical to the uninterrupted run's.
	Resume *EngineSnapshot
}

// Report is the engine-comparable outcome of a check.
type Report struct {
	Net      string
	Engine   Engine
	Deadlock bool          // or "bad state reachable" for safety checks
	Witness  petri.Marking // one witness marking, nil if none or not tracked
	States   int           // states explored (GPN states for GPO engines)
	PeakBDD  int           // symbolic engine only: peak BDD nodes
	PeakSets float64       // GPO engines only: largest |r|
	Elapsed  time.Duration
	Complete bool
	// Aborted marks a check stopped by Options.Ctx: the statistics are a
	// partial account of the exploration up to the cancellation point and
	// the verdict fields (Deadlock, Witness) are not meaningful.
	Aborted bool
	// Checkpointed marks a check suspended cleanly by Options.Ckpt
	// (stop.Suspend): a snapshot was saved at the stop boundary and the
	// statistics are a partial account up to it. Like Aborted, the
	// verdict fields are not final.
	Checkpointed bool
	// PlacesRemoved and TransRemoved record what the Options.Reduce
	// pre-pass removed (both zero when reduction is off or nothing
	// applied).
	PlacesRemoved int
	TransRemoved  int
}

// OptionError reports an Options field whose value can never be valid,
// as opposed to runtime failures such as state limits.
type OptionError struct {
	Field  string
	Value  any
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("verify: invalid option %s=%v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the options for values no engine can honor: a negative
// state/node/worker bound or an unknown engine. Zero bounds mean
// "unlimited"/"default" and are valid. CheckDeadlock and CheckSafety
// validate implicitly and return the *OptionError unwrapped, so services
// can distinguish caller mistakes (reject the request) from analysis
// failures (report them).
func (o Options) Validate() error {
	if !o.Engine.valid() {
		return &OptionError{Field: "Engine", Value: int(o.Engine), Reason: "unknown engine"}
	}
	if o.MaxStates < 0 {
		return &OptionError{Field: "MaxStates", Value: o.MaxStates, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if o.MaxNodes < 0 {
		return &OptionError{Field: "MaxNodes", Value: o.MaxNodes, Reason: "must be >= 0 (0 = unlimited)"}
	}
	if o.Workers < 0 {
		return &OptionError{Field: "Workers", Value: o.Workers, Reason: "must be >= 0 (0 = sequential)"}
	}
	return nil
}

// aborted reports whether an engine error is a cooperative cancellation
// (Options.Ctx fired) rather than an analysis failure.
func aborted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// goal is what an adapter searches for: a deadlock (the zero goal), a
// marking with every place of bad marked (native engines), or, on a
// monitored net, a deadlock with trap marked.
type goal struct {
	bad     []petri.Place
	trap    petri.Place
	monitor bool
}

// counts reports whether the dead marking m meets the goal.
func (g goal) counts(m petri.Marking) bool { return !g.monitor || m.Has(g.trap) }

// CheckDeadlock analyses the net for reachable deadlocks.
func CheckDeadlock(n *petri.Net, opts Options) (*Report, error) {
	return check(n, nil, false, opts)
}

// CheckSafety checks whether a marking with all places of bad
// simultaneously marked is reachable; bad must name at least one place
// of n. The explicit and symbolic engines check the predicate directly;
// the others check deadlock on a monitored net (Section 4 of the paper:
// "the verification of a safety property can always be reduced to a
// check for deadlock"). Whichever engine found it, the witness is a
// reachable marking of n with every place of bad marked.
func CheckSafety(n *petri.Net, bad []petri.Place, opts Options) (*Report, error) {
	return check(n, bad, true, opts)
}

// check runs either check with any engine. It is the one place that
// applies the reduction pre-pass and the safety monitor, classifies the
// engine's error and maps the witness back to n.
func check(n *petri.Net, bad []petri.Place, safety bool, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if safety && len(bad) == 0 {
		return nil, &OptionError{Field: "bad", Value: bad, Reason: "a safety check needs at least one place"}
	}
	for _, p := range bad {
		if p < 0 || int(p) >= n.NumPlaces() {
			return nil, &OptionError{Field: "bad", Value: p, Reason: "not a place of the net"}
		}
	}
	// The bad places are a set: RunKey orders them, and so the engines
	// see them in that order, whatever order the caller listed.
	if !slices.IsSorted(bad) {
		bad = slices.Clone(bad)
		slices.Sort(bad)
	}
	if err := opts.validateCkpt(); err != nil {
		return nil, err
	}
	start := time.Now()
	e := engines[opts.Engine]
	net := n
	var cert *reduce.Certificate
	if opts.Reduce {
		// The bad places are protected, so the property survives into the
		// reduced net; the rules preserve dead markings exactly.
		var err error
		if cert, err = reduce.Run(n, reduce.Options{Protect: bad, Metrics: opts.Metrics}); err != nil {
			return nil, err
		}
		if bad, err = cert.MapPlaces(bad); err != nil {
			return nil, err
		}
		net = cert.Net()
	}
	g, explored := goal{}, net
	if safety && e.native {
		g.bad = bad
	} else if safety {
		mon, trap, err := petri.WithSafetyMonitor(net, bad)
		if err != nil {
			return nil, err
		}
		g, explored = goal{trap: trap, monitor: true}, mon
	}
	rep, err := e.run(explored, g, opts)
	switch {
	case err == nil:
	case rep != nil && errors.Is(err, stop.ErrSuspended):
		rep.Checkpointed = true
	case rep != nil && aborted(err):
		rep.Aborted = true
	default:
		return nil, err
	}
	if g.monitor && rep.Witness != nil {
		// A monitored witness is M − bad + trap, where M is the marking
		// at which the monitor fired. M is the witness.
		w := net.EmptyMarking()
		for _, p := range rep.Witness.Places() {
			if int(p) < net.NumPlaces() {
				w.Set(p)
			}
		}
		for _, p := range bad {
			w.Set(p)
		}
		rep.Witness = w
	}
	if cert != nil {
		rep.Witness = cert.ExpandMarking(rep.Witness)
		rep.PlacesRemoved, rep.TransRemoved = cert.PlacesRemoved(), cert.TransRemoved()
	}
	rep.Net, rep.Engine, rep.Elapsed = n.Name(), opts.Engine, time.Since(start)
	return rep, nil
}

// runReach adapts the exhaustive engine.
func runReach(n *petri.Net, g goal, o Options) (*Report, error) {
	ro := reach.Options{
		Ctx:            o.Ctx,
		MaxStates:      o.MaxStates,
		Workers:        o.Workers,
		StopAtDeadlock: o.StopAtFirst && g.bad == nil,
		StopAtBad:      o.StopAtFirst && g.bad != nil,
		Metrics:        o.Metrics,
		Progress:       o.Progress,
		Trace:          o.Trace,
		Ckpt:           engineHook(o.Ckpt, func(sn *reach.Snapshot) *EngineSnapshot { return &EngineSnapshot{Reach: sn} }),
		Resume:         o.resumeReach(),
	}
	if g.bad != nil {
		ro.Bad = func(m petri.Marking) bool {
			for _, p := range g.bad {
				if !m.Has(p) {
					return false
				}
			}
			return true
		}
	}
	res, err := reach.Explore(n, ro)
	if res == nil {
		return nil, err
	}
	rep := &Report{Deadlock: res.Deadlock, States: res.States, Complete: res.Complete}
	found := res.Deadlocks
	if g.bad != nil {
		rep.Deadlock, found = res.BadFound, res.BadStates
	}
	if len(found) > 0 {
		rep.Witness = found[0]
	}
	return rep, err
}

// runStubborn adapts the partial-order engine.
func runStubborn(n *petri.Net, g goal, o Options) (*Report, error) {
	res, err := stubborn.Explore(n, stubborn.Options{
		Ctx:       o.Ctx,
		MaxStates: o.MaxStates,
		// On a monitored net the first deadlock may be one of n's own.
		StopAtDeadlock: o.StopAtFirst && !g.monitor,
		Proviso:        o.Proviso,
		Metrics:        o.Metrics,
		Progress:       o.Progress,
		Trace:          o.Trace,
	})
	if res == nil {
		return nil, err
	}
	rep := &Report{States: res.States, Complete: res.Complete}
	for _, m := range res.Deadlocks {
		if g.counts(m) {
			rep.Deadlock, rep.Witness = true, m
			break
		}
	}
	return rep, err
}

// runSymbolic adapts the OBDD engine.
func runSymbolic(n *petri.Net, g goal, o Options) (*Report, error) {
	res, err := symbolic.Analyze(n, symbolic.Options{
		Ctx:      o.Ctx,
		MaxNodes: o.MaxNodes,
		Bad:      g.bad,
		Metrics:  o.Metrics,
		Progress: o.Progress,
		Trace:    o.Trace,
	})
	if res == nil {
		return nil, err
	}
	rep := &Report{Deadlock: res.Deadlock, Witness: res.Witness, States: int(res.States),
		PeakBDD: res.PeakNodes, Complete: res.Complete}
	if g.bad != nil {
		rep.Deadlock, rep.Witness = res.BadFound, res.BadWitness
	}
	return rep, err
}

// runCore adapts the GPO engine over the family representation newAlg
// builds.
func runCore[F any, A core.Algebra[F]](newAlg func(int) A) func(*petri.Net, goal, Options) (*Report, error) {
	return func(n *petri.Net, g goal, o Options) (*Report, error) {
		e, err := core.NewEngine[F](n, newAlg(n.NumTrans()))
		if err != nil {
			return nil, err
		}
		res, _, err := e.Analyze(core.Options{
			Ctx:            o.Ctx,
			MaxStates:      o.MaxStates,
			StopAtDeadlock: o.StopAtFirst,
			ExpandDead:     g.monitor, // n's own deadlocks must not cut exploration
			TrapFilter:     g.monitor,
			TrapPlace:      g.trap,
			Metrics:        o.Metrics,
			Progress:       o.Progress,
			Trace:          o.Trace,
			Ckpt:           engineHook(o.Ckpt, func(sn *core.Snapshot) *EngineSnapshot { return &EngineSnapshot{Core: sn} }),
			Resume:         o.resumeCore(),
		})
		if res == nil {
			return nil, err
		}
		rep := &Report{Deadlock: res.Deadlock, States: res.States, PeakSets: res.PeakValid, Complete: res.Complete}
		if len(res.Witnesses) > 0 {
			rep.Witness = res.Witnesses[0]
		}
		return rep, err
	}
}

// runUnfold adapts the unfolding engine. A truncated prefix would report
// phantom deadlocks (events whose successors were never inserted), so a
// prefix is searched only when its build completed.
func runUnfold(n *petri.Net, g goal, o Options) (*Report, error) {
	px, err := unfold.Build(n, unfold.Options{
		Ctx:       o.Ctx,
		MaxEvents: o.MaxStates,
		Metrics:   o.Metrics,
		Progress:  o.Progress,
		Trace:     o.Trace,
	})
	if px == nil {
		return nil, err
	}
	rep := &Report{States: len(px.Events), Complete: err == nil}
	if err == nil {
		rep.Witness, rep.Deadlock = px.FindDeadlockWhere(g.counts)
	}
	return rep, err
}
