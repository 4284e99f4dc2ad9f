// Package symbolic implements OBDD-based symbolic reachability analysis of
// safe Petri nets (Section 2.4 of the paper; the role SMV plays in its
// Table 1): one boolean variable per place, an image step that fires each
// transition on the frontier's BDD directly (bdd.Manager.Fire: no
// next-state variables, no transition relation), breadth-first to a
// fixpoint, and a symbolic deadlock check. The manager's peak node count
// is reported as the "Peak BDD-size" statistic.
package symbolic

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bdd"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
)

// ErrNodeLimit is returned when the BDD grows beyond Options.MaxNodes.
var ErrNodeLimit = errors.New("symbolic: BDD node limit exceeded")

// Options configures a symbolic analysis.
type Options struct {
	// Ctx, if non-nil, is polled between image steps: once cancelled the
	// analysis stops and Analyze returns a partial Result (Complete:
	// false, peak node count and iterations so far) plus the context's
	// error.
	Ctx context.Context
	// MaxNodes aborts the analysis when the manager exceeds this many
	// nodes (0 = no limit).
	MaxNodes int
	// Bad, if non-empty, adds a safety check: is a marking with all these
	// places simultaneously marked reachable?
	Bad []petri.Place
	// Metrics, if non-nil, receives analysis statistics under the
	// "symbolic." prefix plus the BDD manager's cache statistics under
	// "bdd." (see OBSERVABILITY.md). Nil costs nothing.
	Metrics *obs.Registry
	// Progress, if non-nil, gains one per image iteration.
	Progress *obs.Counter
	// Trace, if non-nil, records flight-recorder events: phase brackets
	// for transition registration (named "relations", as trace readers
	// know it) and the fixpoint, one iter event per image step (with the
	// manager size), and a terminal abort on cancellation.
	Trace *trace.Tracer
}

// Result summarizes a symbolic reachability analysis.
type Result struct {
	States     float64 // |reachable set| (exact while it fits a float64)
	PeakNodes  int     // peak BDD manager size
	FinalNodes int     // nodes of the reached-set BDD
	Iterations int     // image steps to the fixpoint
	Deadlock   bool
	Witness    petri.Marking // one deadlock marking, if any
	BadFound   bool          // Options.Bad combination is reachable
	BadWitness petri.Marking // one bad marking, if any
	Complete   bool          // false if the analysis was cancelled mid-fixpoint
}

// register hands every transition of n to m: its support is •t ∪ t•,
// place p being variable p.
func register(n *petri.Net, m *bdd.Manager) []bdd.Trans {
	ts := make([]bdd.Trans, n.NumTrans())
	var vars []int
	var acts []bdd.Action
	for t := range ts {
		vars, acts = vars[:0], acts[:0]
		pre, post := n.Pre(petri.Trans(t)), n.Post(petri.Trans(t))
		for len(pre) > 0 || len(post) > 0 {
			switch {
			case len(post) == 0 || len(pre) > 0 && pre[0] < post[0]:
				vars, acts = append(vars, int(pre[0])), append(acts, bdd.Take)
				pre = pre[1:]
			case len(pre) == 0 || post[0] < pre[0]:
				vars, acts = append(vars, int(post[0])), append(acts, bdd.Put)
				post = post[1:]
			default:
				vars, acts = append(vars, int(pre[0])), append(acts, bdd.Keep)
				pre, post = pre[1:], post[1:]
			}
		}
		ts[t] = m.Transition(vars, acts)
	}
	return ts
}

// Analyze runs the symbolic reachability analysis and deadlock check.
func Analyze(n *petri.Net, opts Options) (*Result, error) {
	defer opts.Metrics.StartSpan("symbolic.analyze").End()
	m := bdd.NewManager(n.NumPlaces())
	if opts.Metrics != nil {
		// Export manager statistics on every exit path, including the
		// node-limit aborts: peak size at abort is exactly what a cap
		// investigation needs.
		defer func() {
			st := m.Stats()
			reg := opts.Metrics
			reg.Gauge("symbolic.peak_nodes").Set(int64(st.Nodes)) // never freed: size is peak
			reg.Gauge("bdd.nodes").Set(int64(st.Nodes))
			reg.Gauge("bdd.unique_hits").Set(st.UniqueHits)
			reg.Gauge("bdd.unique_misses").Set(st.UniqueMisses)
			reg.Gauge("bdd.cache_hits").Set(st.CacheHits)
			reg.Gauge("bdd.cache_misses").Set(st.CacheMisses)
		}()
	}
	cIter := opts.Metrics.Counter("symbolic.iterations")
	tk := opts.Trace.NewTrack("symbolic")
	phRel := opts.Trace.Intern("relations")
	phFix := opts.Trace.Intern("fixpoint")

	iterations := 0
	cancel := stop.Every(opts.Ctx, 1)
	abort := func(err error) (*Result, error) {
		tk.Abort(opts.Trace.Intern(err.Error()))
		return &Result{PeakNodes: m.Size(), Iterations: iterations},
			fmt.Errorf("symbolic: aborted: %w", err)
	}

	tk.Begin(phRel)
	trans := register(n, m)
	tk.End(phRel)

	// Initial state, conjoined from the last place up so that each And
	// meets only the top of the cube.
	init := bdd.True
	marked := n.InitialMarking()
	for p := petri.Place(n.NumPlaces() - 1); p >= 0; p-- {
		if marked.Has(p) {
			init = m.And(m.Var(int(p)), init)
		} else {
			init = m.And(m.NVar(int(p)), init)
		}
	}

	reached := init
	frontier := init
	tk.Begin(phFix)
	for frontier != bdd.False {
		iterations++
		cIter.Inc()
		opts.Progress.Add(1)
		img := bdd.False
		for _, t := range trans {
			if err := cancel.Poll(); err != nil {
				return abort(err)
			}
			img = m.Or(img, m.Fire(frontier, t))
			if opts.MaxNodes > 0 && m.Size() > opts.MaxNodes {
				return nil, ErrNodeLimit
			}
		}
		frontier = m.Diff(img, reached)
		reached = m.Or(reached, img)
		tk.Iter(int64(iterations), int64(m.Size()))
	}
	tk.End(phFix)

	// Deadlock: reached ∧ no transition enabled.
	someEnabled := bdd.False
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		en := bdd.True
		for _, p := range n.Pre(t) {
			en = m.And(en, m.Var(int(p)))
		}
		someEnabled = m.Or(someEnabled, en)
	}
	dead := m.Diff(reached, someEnabled)

	res := &Result{
		States:     m.SatCount(reached),
		PeakNodes:  m.Size(),
		FinalNodes: m.NodeCount(reached),
		Iterations: iterations,
		Complete:   true,
	}
	if assign, ok := m.AnySat(dead); ok {
		res.Deadlock = true
		res.Witness = markingOf(n, assign)
	}

	if len(opts.Bad) > 0 {
		badF := bdd.True
		for _, p := range opts.Bad {
			badF = m.And(badF, m.Var(int(p)))
		}
		if assign, ok := m.AnySat(m.And(reached, badF)); ok {
			res.BadFound = true
			res.BadWitness = markingOf(n, assign)
		}
	}
	return res, nil
}

func markingOf(n *petri.Net, assign []bool) petri.Marking {
	w := n.EmptyMarking()
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		if assign[p] {
			w.Set(p)
		}
	}
	return w
}
