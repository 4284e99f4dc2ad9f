// Package symbolic implements OBDD-based symbolic reachability analysis of
// safe Petri nets (Section 2.4 of the paper; the role SMV plays in its
// Table 1): one boolean variable per place, a partitioned transition
// relation, breadth-first image computation to a fixpoint, and a symbolic
// deadlock check. The manager's peak node count is reported as the
// "Peak BDD-size" statistic.
package symbolic

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bdd"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
)

// ErrNodeLimit is returned when the BDD grows beyond Options.MaxNodes.
var ErrNodeLimit = errors.New("symbolic: BDD node limit exceeded")

// Order selects the variable ordering of current/next state variables.
type Order int

const (
	// OrderInterleaved puts each place's next-state variable directly
	// after its current-state variable — the standard choice for
	// transition relations.
	OrderInterleaved Order = iota
	// OrderSequential puts all current-state variables before all
	// next-state variables; usually much worse (ablation).
	OrderSequential
)

// Options configures a symbolic analysis.
type Options struct {
	// Ctx, if non-nil, is polled between image steps: once cancelled the
	// analysis stops and Analyze returns a partial Result (Complete:
	// false, peak node count and iterations so far) plus the context's
	// error.
	Ctx   context.Context
	Order Order
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
	// for relation building and the fixpoint, one iter event per image
	// step (with the manager size), and a terminal abort on cancellation.
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

// analyzer carries the encoding.
type analyzer struct {
	net  *petri.Net
	m    *bdd.Manager
	cur  []int        // variable of place p (current state)
	nxt  []int        // variable of place p (next state)
	shed bdd.VarSet   // quantified in an image step: current-state variables
	perm bdd.Renaming // next → current
	role []uint8      // transitionRelation scratch, all zero between calls
}

func newAnalyzer(n *petri.Net, order Order) *analyzer {
	np := n.NumPlaces()
	a := &analyzer{
		net:  n,
		m:    bdd.NewManager(2 * np),
		cur:  make([]int, np),
		nxt:  make([]int, np),
		role: make([]uint8, np),
	}
	for p := 0; p < np; p++ {
		switch order {
		case OrderInterleaved:
			a.cur[p], a.nxt[p] = 2*p, 2*p+1
		case OrderSequential:
			a.cur[p], a.nxt[p] = p, np+p
		}
	}
	shed := make([]bool, 2*np)
	perm := make([]int, 2*np)
	for p := 0; p < np; p++ {
		shed[a.cur[p]] = true
		perm[a.cur[p]] = a.cur[p]
		perm[a.nxt[p]] = a.cur[p]
	}
	a.shed, a.perm = a.m.VarSet(shed), a.m.Renaming(perm)
	return a
}

// Roles of a place in the transition whose relation is being built.
const (
	inPre uint8 = 1 << iota
	inPost
)

// transitionRelation builds T_t(x, x′): t enabled in x, tokens moved, and
// every untouched place unchanged — one conjunct per place, conjoined from
// the last place to the first. A place's conjunct tests only its own two
// variables, so in that order each And meets just the top of the
// accumulated relation; a conjunct about a place above the top would
// walk the relation down to its levels and leave a copy of the path
// behind (the lesson of zdd's conflictFreeBDD).
func (a *analyzer) transitionRelation(t petri.Trans) bdd.Node {
	n, m := a.net, a.m
	for _, p := range n.Pre(t) {
		a.role[p] |= inPre
	}
	for _, p := range n.Post(t) {
		a.role[p] |= inPost
	}
	rel := bdd.True
	for p := n.NumPlaces() - 1; p >= 0; p-- {
		var c bdd.Node
		switch a.role[p] {
		case inPre: // enabledness, token removed
			c = m.And(m.Var(a.cur[p]), m.NVar(a.nxt[p]))
		case inPre | inPost: // enabledness, self-loop keeps the token
			c = m.And(m.Var(a.cur[p]), m.Var(a.nxt[p]))
		case inPost: // token added
			c = m.Var(a.nxt[p])
		default: // untouched
			c = m.Equiv(m.Var(a.cur[p]), m.Var(a.nxt[p]))
		}
		rel = m.And(c, rel)
		a.role[p] = 0
	}
	return rel
}

// Analyze runs the symbolic reachability analysis and deadlock check.
func Analyze(n *petri.Net, opts Options) (*Result, error) {
	defer opts.Metrics.StartSpan("symbolic.analyze").End()
	a := newAnalyzer(n, opts.Order)
	m := a.m
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
		return &Result{PeakNodes: m.Peak(), Iterations: iterations},
			fmt.Errorf("symbolic: aborted: %w", err)
	}

	tk.Begin(phRel)
	rels := make([]bdd.Node, n.NumTrans())
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		if err := cancel.Poll(); err != nil {
			return abort(err)
		}
		rels[t] = a.transitionRelation(t)
		if opts.MaxNodes > 0 && m.Size() > opts.MaxNodes {
			return nil, ErrNodeLimit
		}
	}
	tk.End(phRel)

	// Initial state.
	init := bdd.True
	marked := make(map[petri.Place]bool)
	for _, p := range n.InitialPlaces() {
		marked[p] = true
	}
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		if marked[p] {
			init = m.And(init, m.Var(a.cur[p]))
		} else {
			init = m.And(init, m.NVar(a.cur[p]))
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
		for _, rel := range rels {
			if err := cancel.Poll(); err != nil {
				return abort(err)
			}
			step := m.AndExists(frontier, rel, a.shed)
			img = m.Or(img, m.Rename(step, a.perm))
			if opts.MaxNodes > 0 && m.Size() > opts.MaxNodes {
				return nil, ErrNodeLimit
			}
		}
		frontier = m.And(img, m.Not(reached))
		reached = m.Or(reached, img)
		tk.Iter(int64(iterations), int64(m.Size()))
	}
	tk.End(phFix)

	// Deadlock: reached ∧ no transition enabled.
	someEnabled := bdd.False
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		en := bdd.True
		for _, p := range n.Pre(t) {
			en = m.And(en, m.Var(a.cur[p]))
		}
		someEnabled = m.Or(someEnabled, en)
	}
	dead := m.And(reached, m.Not(someEnabled))

	res := &Result{
		States:     m.SatCount(reached) / math.Exp2(float64(n.NumPlaces())),
		PeakNodes:  m.Peak(),
		FinalNodes: m.NodeCount(reached),
		Iterations: iterations,
		Complete:   true,
	}
	if assign, ok := m.AnySat(dead); ok {
		res.Deadlock = true
		res.Witness = a.markingOf(assign)
	}

	if len(opts.Bad) > 0 {
		badF := bdd.True
		for _, p := range opts.Bad {
			badF = m.And(badF, m.Var(a.cur[p]))
		}
		if assign, ok := m.AnySat(m.And(reached, badF)); ok {
			res.BadFound = true
			res.BadWitness = a.markingOf(assign)
		}
	}
	return res, nil
}

func (a *analyzer) markingOf(assign []bool) petri.Marking {
	w := a.net.EmptyMarking()
	for p := petri.Place(0); int(p) < a.net.NumPlaces(); p++ {
		if assign[a.cur[p]] {
			w.Set(p)
		}
	}
	return w
}
