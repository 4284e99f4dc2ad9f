package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
)

// ErrStateLimit is returned when exploration would exceed Options.MaxStates.
var ErrStateLimit = errors.New("core: state limit exceeded")

// Options configures a generalized partial-order analysis.
type Options struct {
	// Ctx, if non-nil, is polled cooperatively during the analysis: once
	// cancelled the exploration stops within a bounded number of GPN
	// states and Analyze returns the partial Result so far (Complete:
	// false) together with the context's error.
	Ctx context.Context
	// StopAtDeadlock halts the analysis as soon as one state with a
	// deadlock possibility is found.
	StopAtDeadlock bool
	// ExpandDead keeps exploring past states that exhibit a deadlock
	// possibility. The paper's algorithm treats them as leaves (its
	// pseudo-code reports and does not recurse), which is the default.
	ExpandDead bool
	// SingleOnly disables the multiple firing semantics (ablation): the
	// analysis then degenerates to exploration with single firings only.
	SingleOnly bool
	// NoAnticipation additionally disables the partial-order selection of
	// one conflict set (ablation): every single-enabled transition is fired
	// at every state.
	NoAnticipation bool
	// MaxStates caps the search at exactly this many GPN states; the
	// search stops with ErrStateLimit when one more would be interned, and
	// the firing that would have exceeded the cap is not recorded. Zero
	// means no limit.
	MaxStates int
	// StoreGraph retains all GPN states and arcs in the result.
	StoreGraph bool
	// WitnessLimit bounds the classical deadlock witness markings extracted
	// per dead state (default 1, <0 = none).
	WitnessLimit int
	// TrapFilter restricts deadlock reporting to dead valid sets whose
	// mapped marking includes TrapPlace. Used by the safety-to-deadlock
	// reduction: only deadlocks of the monitor trap witness a violation.
	TrapFilter bool
	TrapPlace  petri.Place
	// Metrics, if non-nil, receives analysis statistics under the "core."
	// prefix, plus the family algebra's own statistics when it implements
	// StatsReporter (see OBSERVABILITY.md). Nil costs nothing; metrics
	// never influence the exploration.
	Metrics *obs.Registry
	// Progress, if non-nil, gains one per GPN state interned.
	Progress *obs.Counter
	// Trace, if non-nil, records flight-recorder events: one state event
	// per interned GPN state (with |r| as detail), fire/multifire events
	// per arc, conflict-component events per state, the algebra's table
	// growth via TraceAttacher, and a terminal abort on cancellation. Nil
	// costs one branch per event and zero allocations (pinned by
	// TestAnalyzeDisabledTracerZeroAlloc).
	Trace *trace.Tracer
	// Ckpt, if non-nil, enables checkpointing: the hook is polled at the
	// top of every DFS iteration (the boundary coordinate is the count of
	// completed steps) and can save a Snapshot (stop.Save) or save one
	// and suspend the run (stop.Suspend, returning the partial Result
	// with stop.ErrSuspended). Requires the algebra to implement
	// SnapshotCodec; incompatible with StoreGraph. Like Metrics and
	// Trace, the hook only observes and suspends — it never changes
	// which states an uninterrupted run explores.
	Ckpt *stop.Hook[*Snapshot]
	// Resume, if non-nil, restores the analysis from a Snapshot instead
	// of starting at the initial state, re-entering the DFS at the saved
	// step boundary with Results bit-identical to the uninterrupted run.
	// Requires SnapshotCodec; incompatible with StoreGraph.
	Resume *Snapshot
}

// StatsReporter is implemented by family algebras that can export
// internal statistics (cache hit rates, node counts) into a metrics
// registry; Analyze invokes it once when Options.Metrics is set.
type StatsReporter interface {
	ReportStats(*obs.Registry)
}

// TraceAttacher is implemented by family algebras that can stream
// flight-recorder events (ZDD table growth) onto an engine's trace
// track; Analyze attaches for the duration of the run when
// Options.Trace is set and detaches on every exit path.
type TraceAttacher interface {
	AttachTrace(*trace.Tracer, *trace.Track)
	DetachTrace()
}

// Arc is one edge of the GPN reachability graph: the simultaneous (or
// single) firing of Fired leading to state To. Fired is read-only; single
// firings share one per-transition slice across all arcs.
type Arc struct {
	Fired    []petri.Trans
	To       int
	Multiple bool
}

// Graph is the stored GPN reachability graph.
type Graph[F any] struct {
	States []*State[F]
	Edges  [][]Arc
}

// Result summarizes a generalized partial-order analysis.
type Result struct {
	States        int // GPN states explored
	Arcs          int
	MultiFirings  int // multiple-firing steps taken
	SingleFirings int // single-firing steps taken
	Deadlock      bool
	DeadStates    []int           // ids of states with a deadlock possibility
	Witnesses     []petri.Marking // classical deadlock markings (≤ WitnessLimit per dead state)
	Complete      bool            // false if stopped early
	PeakValid     float64         // largest |r| encountered
}

// Engine runs the generalized partial-order analysis of Section 3.3 over a
// safe Petri net, parameterized by the family representation.
//
// An Engine is single-goroutine: its per-state work runs on reusable
// scratch buffers (allocated once in NewEngine) instead of per-firing
// maps, and structural firing data (•t \ t•, t• \ •t, the singleton
// fired slices) is precomputed per transition. Concurrent Analyze calls
// on one Engine are a data race; share the *petri.Net and build one
// Engine per goroutine instead.
type Engine[F any] struct {
	Net *petri.Net
	Alg Algebra[F]

	// Precomputed structural firing data (ensureInit).
	preOnly  [][]petri.Place // preOnly[t]:  •t \ t•
	postOnly [][]petri.Place // postOnly[t]: t• \ •t
	firedOne [][]petri.Trans // firedOne[t] = {t}, shared by arcs

	// Scratch reused across states. Invariant between per-state calls:
	// the bool bitsets are all-false and the slices are dead (no live
	// references escape a state's processing).
	sEnBuf    []F             // per-state enabled-family cache
	mEnBuf    []F             // m_enabled vector for the multiple branch
	isSingle  []bool          // single-enabled membership
	inT       []bool          // T′ membership (multiFire, post-check)
	inUnion   []bool          // candidate-union membership (po-safety)
	singleBuf []petri.Trans   // single-enabled transition list
	ufParent  []int32         // union-find over singles (components)
	compOf    []int32         // root -> component index
	compOff   []int32         // component -> members offset
	compCur   []int32         // component fill cursors
	memberBuf []petri.Trans   // component members backing array
	compsBuf  [][]petri.Trans // component slice headers
	tentBuf   [][]petri.Trans // tentative candidate components
	keyBuf    []byte          // state-key assembly buffer

	// tk is the flight-recorder track of the Analyze call in progress
	// (nil when tracing is disabled); a transient like the scratch above,
	// reset at the start of every Analyze.
	tk *trace.Track
}

// NewEngine returns an engine for the net using the given family algebra.
// The algebra's universe must equal the net's transition count.
func NewEngine[F any](n *petri.Net, alg Algebra[F]) (*Engine[F], error) {
	if alg.Universe() != n.NumTrans() {
		return nil, fmt.Errorf("core: algebra universe %d != %d transitions of %s",
			alg.Universe(), n.NumTrans(), n.Name())
	}
	e := &Engine[F]{Net: n, Alg: alg}
	e.ensureInit()
	return e, nil
}

// ensureInit materializes the precomputed structural data and scratch
// buffers. NewEngine calls it once; the entry points re-check so that a
// literal-constructed Engine still works.
func (e *Engine[F]) ensureInit() {
	if e.preOnly != nil {
		return
	}
	n := e.Net
	nt := n.NumTrans()
	e.preOnly = make([][]petri.Place, nt)
	e.postOnly = make([][]petri.Place, nt)
	e.firedOne = make([][]petri.Trans, nt)
	for t := 0; t < nt; t++ {
		tr := petri.Trans(t)
		pre, post := n.Pre(tr), n.Post(tr)
		for _, p := range pre {
			if !placeIn(post, p) {
				e.preOnly[t] = append(e.preOnly[t], p)
			}
		}
		for _, p := range post {
			if !placeIn(pre, p) {
				e.postOnly[t] = append(e.postOnly[t], p)
			}
		}
		e.firedOne[t] = []petri.Trans{tr}
	}
	e.sEnBuf = make([]F, nt)
	e.mEnBuf = make([]F, nt)
	e.isSingle = make([]bool, nt)
	e.inT = make([]bool, nt)
	e.inUnion = make([]bool, nt)
	e.singleBuf = make([]petri.Trans, 0, nt)
	e.ufParent = make([]int32, nt)
	e.compOf = make([]int32, nt)
	e.compOff = make([]int32, nt)
	e.compCur = make([]int32, nt)
	e.memberBuf = make([]petri.Trans, nt)
	e.compsBuf = make([][]petri.Trans, 0, nt)
	e.tentBuf = make([][]petri.Trans, 0, nt)
}

func placeIn(ps []petri.Place, p petri.Place) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// satInt64 converts a valid-set count to the integer the metrics and
// trace surfaces carry, saturating at math.MaxInt64: |r₀| passes 2⁶³
// from nsdp(34) on, where a plain int64(c) is implementation-defined (on
// amd64, −2⁶³). Result.PeakValid keeps the exact float.
func satInt64(c float64) int64 {
	if c >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(c)
}

// succ is a computed successor before interning.
type succ[F any] struct {
	fired    []petri.Trans
	multiple bool
	state    *State[F]
}

// frame is one DFS stack entry.
type frame[F any] struct {
	id        int
	state     *State[F]
	succs     []succ[F]
	next      int
	postponed bool // some single-enabled transitions were not fired
	fullDone  bool // cycle proviso already applied
}

// Analyze runs the generalized partial-order reachability analysis from
// the net's initial marking.
func (e *Engine[F]) Analyze(opts Options) (*Result, *Graph[F], error) {
	e.ensureInit()
	if opts.WitnessLimit == 0 {
		opts.WitnessLimit = 1
	}
	if err := validateCkptOptions(opts); err != nil {
		return nil, nil, err
	}
	var codec SnapshotCodec[F]
	if opts.Ckpt != nil || opts.Resume != nil {
		var err error
		if codec, err = e.snapshotCodec(); err != nil {
			return nil, nil, err
		}
	}
	defer opts.Metrics.StartSpan("core.analyze").End()
	var (
		cStates    = opts.Metrics.Counter("core.states")
		cArcs      = opts.Metrics.Counter("core.arcs")
		cMulti     = opts.Metrics.Counter("core.multi_firings")
		cSingle    = opts.Metrics.Counter("core.single_firings")
		cDead      = opts.Metrics.Counter("core.dead_states")
		cProviso   = opts.Metrics.Counter("core.proviso_expansions")
		gPeakValid = opts.Metrics.Gauge("core.peak_valid")
		gStack     = opts.Metrics.Gauge("core.stack_peak")
		hValid     = opts.Metrics.Histogram("core.valid_sets")
	)
	if opts.Metrics != nil {
		// Export the algebra's internal statistics (ZDD cache hit rates,
		// explicit-family op counts) on every exit path.
		if sr, ok := any(e.Alg).(StatsReporter); ok {
			defer sr.ReportStats(opts.Metrics)
		}
	}
	e.tk = opts.Trace.NewTrack("core")
	phAnalyze := opts.Trace.Intern("analyze")
	e.tk.Begin(phAnalyze)
	if opts.Trace != nil {
		// Stream the algebra's table-growth events onto this track for the
		// duration of the run only: the hook must not outlive the tracer.
		if ta, ok := any(e.Alg).(TraceAttacher); ok {
			ta.AttachTrace(opts.Trace, e.tk)
			defer ta.DetachTrace()
		}
	}
	res := &Result{Complete: true}
	var g *Graph[F]
	if opts.StoreGraph {
		g = &Graph[F]{}
	}

	index := make(map[string]int)
	onStack := make(map[int]bool)
	var states []*State[F]
	var stack []*frame[F]
	limited := false
	// steps counts completed DFS iterations — the checkpoint boundary
	// coordinate. resumedBoundary suppresses the first poll after a
	// resume: that boundary is the one the checkpoint was taken at.
	var steps int64
	resumedBoundary := false

	intern := func(s *State[F]) (int, bool) {
		k := e.key(s)
		if id, ok := index[k]; ok {
			return id, false
		}
		if opts.MaxStates > 0 && len(states) >= opts.MaxStates {
			limited = true
			return -1, false
		}
		id := len(states)
		index[k] = id
		states = append(states, s)
		if g != nil {
			g.States = append(g.States, s)
			g.Edges = append(g.Edges, nil)
		}
		c := e.Alg.Count(s.R)
		if c > res.PeakValid {
			res.PeakValid = c
		}
		ci := satInt64(c)
		cStates.Inc()
		hValid.Observe(ci)
		gPeakValid.SetMax(ci)
		opts.Progress.Add(1)
		e.tk.State(int64(id), ci)
		return id, true
	}

	// Created before the local `stop` flag shadows the package name.
	cancel := stop.Every(opts.Ctx, 16)
	stop := false

	processFrame := func(f *frame[F]) bool {
		// The enabled-family cache: s_enabled(t, s) for every t, computed
		// once per state and shared by the deadlock check and the
		// successor computation (which previously both recomputed it).
		sEn := e.sEnabledAll(f.state)
		// Deadlock check first (Section 3.3): a state whose valid sets are
		// not all covered by single-enabled transitions exhibits a
		// deadlock possibility.
		dead := e.deadSets(f.state, sEn)
		if opts.TrapFilter {
			dead = e.Alg.Intersect(dead, f.state.M[opts.TrapPlace])
		}
		isDead := !e.Alg.IsEmpty(dead)
		if isDead {
			res.Deadlock = true
			res.DeadStates = append(res.DeadStates, f.id)
			cDead.Inc()
			if opts.WitnessLimit > 0 {
				for _, v := range e.Alg.Enumerate(dead, opts.WitnessLimit) {
					res.Witnesses = append(res.Witnesses, e.MarkingOf(f.state, v))
				}
			}
			if opts.StopAtDeadlock {
				return true
			}
			if !opts.ExpandDead {
				return false // leaf, as in the paper's algorithm
			}
		}
		f.succs, f.postponed = e.successors(f.state, opts, sEn)
		return false
	}

	if sn := opts.Resume; sn != nil {
		var rerr error
		states, index, onStack, stack, rerr = e.restoreSnapshot(sn, codec)
		if rerr != nil {
			return nil, nil, rerr
		}
		restoreResult(res, sn)
		steps = sn.Steps
		resumedBoundary = true
		cStates.Add(int64(len(states)))
		gPeakValid.SetMax(satInt64(res.PeakValid))
		opts.Progress.Add(int64(len(states)))
	} else {
		s0 := e.InitialState()
		intern(s0)
		stack = []*frame[F]{{id: 0, state: s0}}
		onStack[0] = true
		if processFrame(stack[0]) {
			res.States = len(states)
			res.Complete = false
			return res, g, nil
		}
	}

	for len(stack) > 0 && !stop {
		if !resumedBoundary {
			if err := opts.Ckpt.At(len(states), steps, func() *Snapshot {
				return e.snapshotAt(states, stack, res, steps, codec)
			}); err != nil {
				res.States = len(states)
				res.Complete = false
				return res, g, err
			}
		}
		resumedBoundary = false
		steps++
		if err := cancel.Poll(); err != nil {
			res.States = len(states)
			res.Complete = false
			e.tk.Abort(opts.Trace.Intern(err.Error()))
			return res, g, fmt.Errorf("core: aborted: %w", err)
		}
		f := stack[len(stack)-1]
		if f.next >= len(f.succs) {
			onStack[f.id] = false
			stack = stack[:len(stack)-1]
			continue
		}
		sc := f.succs[f.next]
		f.next++

		id, fresh := intern(sc.state)
		if limited {
			res.States = len(states)
			res.Complete = false
			return res, g, ErrStateLimit
		}
		res.Arcs++
		cArcs.Inc()
		if sc.multiple {
			res.MultiFirings++
			cMulti.Inc()
			// One multifire event for the step plus one fire per member, so
			// per-transition firing counts stay accurate in summaries.
			e.tk.MultiFire(int64(len(sc.fired)), int64(id))
			for _, t := range sc.fired {
				e.tk.Fire(int64(t), int64(id))
			}
		} else {
			res.SingleFirings++
			cSingle.Inc()
			e.tk.Fire(int64(sc.fired[0]), int64(id))
		}
		if g != nil {
			g.Edges[f.id] = append(g.Edges[f.id], Arc{Fired: sc.fired, To: id, Multiple: sc.multiple})
		}
		if fresh {
			nf := &frame[F]{id: id, state: sc.state}
			if processFrame(nf) {
				stop = true
				break
			}
			onStack[id] = true
			stack = append(stack, nf)
			gStack.SetMax(int64(len(stack)))
		} else if onStack[id] && f.postponed && !f.fullDone {
			// Cycle proviso: a cycle closed while this state postponed
			// enabled transitions; expand it fully so nothing is ignored
			// forever (paper footnote 2).
			f.fullDone = true
			cProviso.Inc()
			f.succs = append(f.succs, e.allSingleSuccessors(f.state)...)
		}
	}

	res.States = len(states)
	res.Complete = !stop
	e.tk.End(phAnalyze)
	return res, g, nil
}

// successors computes the successor states of s following the priority of
// the paper's algorithm: candidate maximal conflicting sets fired
// simultaneously when they exist, otherwise one partial-order-selected
// conflict set fired transition by transition, otherwise every
// single-enabled transition. sEn is the state's enabled-family cache.
// The second return value reports whether some single-enabled transitions
// were postponed.
func (e *Engine[F]) successors(s *State[F], opts Options, sEn []F) ([]succ[F], bool) {
	nt := e.Net.NumTrans()

	singles := e.singleBuf[:0]
	isSingle := e.isSingle
	for t := 0; t < nt; t++ {
		if !e.Alg.IsEmpty(sEn[t]) {
			singles = append(singles, petri.Trans(t))
			isSingle[t] = true
		} else {
			isSingle[t] = false
		}
	}
	if len(singles) == 0 {
		return nil, false
	}

	if opts.NoAnticipation {
		return e.singleSuccs(s, singles, sEn), false
	}

	comps := e.enabledComponents(singles)
	e.tk.Conflict(int64(len(comps)), int64(len(singles)))

	if !opts.SingleOnly {
		if sc, fired, ok := e.tryMultiple(s, comps, isSingle, sEn); ok {
			return []succ[F]{sc}, fired < len(singles)
		}
	}

	// Middle branch: fire one safely-selectable conflict set, each member
	// separately.
	for _, comp := range comps {
		if e.poSafe(comp, comp, isSingle, s) {
			return e.singleSuccs(s, comp, sEn), len(comp) < len(singles)
		}
	}

	return e.singleSuccs(s, singles, sEn), false
}

// tryMultiple attempts the multiple-firing branch: it selects the candidate
// maximal conflicting sets, fires their union simultaneously, and verifies
// that no other single-enabled transition was disabled. It reports the
// number of transitions fired.
func (e *Engine[F]) tryMultiple(s *State[F], comps [][]petri.Trans, isSingle []bool, sEn []F) (succ[F], int, bool) {
	// A component is tentatively a candidate if all members are multiple
	// enabled; the po-safety condition is then iterated to a fixpoint since
	// it references the union of all remaining candidates. mEn is the
	// engine's transition-indexed scratch vector; entries are meaningful
	// only for members of tentative components. m_enabled(t) is the
	// t-containing part of ∩_{p∈•t} m(p), which sEn[t] already is.
	mEn := e.mEnBuf
	tentative := e.tentBuf[:0]
	for _, comp := range comps {
		ok := true
		for _, t := range comp {
			f := e.Alg.OnSet(sEn[t], int(t))
			if e.Alg.IsEmpty(f) {
				ok = false
				break
			}
			mEn[t] = f
		}
		if ok {
			tentative = append(tentative, comp)
		}
	}
	inUnion := e.inUnion
	for {
		if len(tentative) == 0 {
			return succ[F]{}, 0, false
		}
		for _, comp := range tentative {
			for _, t := range comp {
				inUnion[t] = true
			}
		}
		kept := tentative[:0]
		changed := false
		for _, comp := range tentative {
			if e.poSafeSet(comp, inUnion, isSingle, s) {
				kept = append(kept, comp)
			} else {
				changed = true
			}
		}
		// Clear the union bits before the next round (or the exit): the
		// dropped components' members are no longer listed in tentative,
		// but every union member is in some component of comps.
		for _, comp := range comps {
			for _, t := range comp {
				inUnion[t] = false
			}
		}
		tentative = kept
		if !changed {
			break
		}
	}

	nFired := 0
	for _, comp := range tentative {
		nFired += len(comp)
	}
	tPrime := make([]petri.Trans, 0, nFired)
	for _, comp := range tentative {
		tPrime = append(tPrime, comp...)
	}
	next := e.multiFire(s, tPrime, mEn, sEn)

	// Post-check (Section 3.3): firing the candidates must not disable any
	// other transition that was single enabled.
	inT := e.inT
	for _, t := range tPrime {
		inT[t] = true
	}
	ok := true
	for t := 0; t < e.Net.NumTrans(); t++ {
		if isSingle[t] && !inT[t] {
			if e.Alg.IsEmpty(e.SEnabled(next, petri.Trans(t))) {
				ok = false
				break
			}
		}
	}
	for _, t := range tPrime {
		inT[t] = false
	}
	if !ok {
		return succ[F]{}, 0, false
	}
	return succ[F]{fired: tPrime, multiple: true, state: next}, len(tPrime), true
}

// enabledComponents partitions the single-enabled transitions into
// connected components of the structural conflict relation: the enabled
// parts of the maximal conflicting sets. The returned component slices
// live in the engine's scratch and are valid only until the next state is
// processed; anything retained (tPrime) is copied out.
func (e *Engine[F]) enabledComponents(singles []petri.Trans) [][]petri.Trans {
	k := len(singles)
	parent := e.ufParent[:k]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if e.Net.Conflict(singles[i], singles[j]) {
				ri, rj := find(int32(i)), find(int32(j))
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	// Components numbered by first occurrence in singles, members kept in
	// singles order (both as in the original map-based grouping).
	compOf := e.compOf[:k]
	for i := range compOf {
		compOf[i] = -1
	}
	ncomp := 0
	for i := 0; i < k; i++ {
		r := find(int32(i))
		if compOf[r] < 0 {
			compOf[r] = int32(ncomp)
			ncomp++
		}
	}
	offs := e.compOff[:ncomp]
	cur := e.compCur[:ncomp]
	for i := range cur {
		cur[i] = 0
	}
	for i := 0; i < k; i++ {
		cur[compOf[find(int32(i))]]++
	}
	sum := int32(0)
	for c := 0; c < ncomp; c++ {
		offs[c] = sum
		sum += cur[c]
		cur[c] = offs[c]
	}
	members := e.memberBuf[:k]
	for i := 0; i < k; i++ {
		c := compOf[find(int32(i))]
		members[cur[c]] = singles[i]
		cur[c]++
	}
	comps := e.compsBuf[:0]
	for c := 0; c < ncomp; c++ {
		comps = append(comps, members[offs[c]:cur[c]])
	}
	return comps
}

// poSafe reports whether firing the conflict set comp is safe against the
// transitions outside the given union: every competitor for a token of
// •comp must either be inside the union, or be disabled with an empty
// input place that only the union can fill (so its branch is anticipated,
// not lost).
func (e *Engine[F]) poSafe(comp []petri.Trans, union []petri.Trans, isSingle []bool, s *State[F]) bool {
	inUnion := e.inUnion
	for _, t := range union {
		inUnion[t] = true
	}
	ok := e.poSafeSet(comp, inUnion, isSingle, s)
	for _, t := range union {
		inUnion[t] = false
	}
	return ok
}

func (e *Engine[F]) poSafeSet(comp []petri.Trans, inUnion []bool, isSingle []bool, s *State[F]) bool {
	for _, t := range comp {
		for _, p := range e.Net.Pre(t) {
			for _, w := range e.Net.PostT(p) {
				if inUnion[w] {
					continue
				}
				if isSingle[w] {
					return false // an enabled competitor would be disabled
				}
				if !e.anticipated(w, inUnion, s) {
					return false
				}
			}
		}
	}
	return true
}

// anticipated reports whether the disabled transition w cannot become
// enabled before the union fires: it has an empty input place whose
// producers all belong to the union.
func (e *Engine[F]) anticipated(w petri.Trans, inUnion []bool, s *State[F]) bool {
	for _, q := range e.Net.Pre(w) {
		if !e.Alg.IsEmpty(s.M[q]) {
			continue
		}
		all := true
		for _, prod := range e.Net.PreT(q) {
			if !inUnion[prod] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func (e *Engine[F]) singleSuccs(s *State[F], ts []petri.Trans, sEn []F) []succ[F] {
	out := make([]succ[F], 0, len(ts))
	for _, t := range ts {
		out = append(out, succ[F]{
			fired: e.firedOne[t],
			state: e.SingleFire(s, t, sEn[t]),
		})
	}
	return out
}

// allSingleSuccessors fires every single-enabled transition of s
// separately; used by the cycle proviso. Cold path: it recomputes the
// enabled families rather than using the per-state cache, because the
// proviso expands a frame long after its cache was overwritten.
func (e *Engine[F]) allSingleSuccessors(s *State[F]) []succ[F] {
	var out []succ[F]
	for t := 0; t < e.Net.NumTrans(); t++ {
		en := e.SEnabled(s, petri.Trans(t))
		if !e.Alg.IsEmpty(en) {
			out = append(out, succ[F]{
				fired: e.firedOne[t],
				state: e.SingleFire(s, petri.Trans(t), en),
			})
		}
	}
	return out
}
