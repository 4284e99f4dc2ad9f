// Package stubborn implements classical partial-order (stubborn-set)
// reduced reachability for safe Petri nets, the technique of Section 2.3
// of the paper (Valmari's stubborn sets; the role SPIN+PO plays in the
// paper's Table 1).
//
// At every state a stubborn set of transitions is computed by a closure:
//
//   - an enabled member pulls in every transition it is in conflict with
//     (they compete for the same tokens, so their interleavings matter);
//   - a disabled member pulls in the producers of one of its unmarked
//     input places (only they can enable it).
//
// Firing only the enabled members of a stubborn set at every state
// preserves all deadlocks of the net while pruning the interleavings of
// independent transitions. Concurrently marked conflict places are NOT
// collapsed — every branch combination is still enumerated, which is the
// limitation the paper's generalized analysis removes (Figure 2).
package stubborn

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
	"repro/internal/visited"
)

// ErrStateLimit is returned when exploration would exceed
// Options.MaxStates: the search stops with exactly that many states.
var ErrStateLimit = errors.New("stubborn: state limit exceeded")

// SeedStrategy selects how the closure's starting transition is chosen.
type SeedStrategy int

const (
	// SeedFirst starts the closure from the first enabled transition.
	SeedFirst SeedStrategy = iota
	// SeedBest tries every enabled transition as seed and keeps the
	// stubborn set with the fewest enabled members (slower per state,
	// often smaller graphs). Used by the ablation benchmarks.
	SeedBest
)

// Options configures a reduced exploration.
type Options struct {
	// Ctx, if non-nil, is polled cooperatively: once cancelled the search
	// stops within a bounded number of firings and Explore returns the
	// partial Result (Complete: false) plus the context's error.
	Ctx            context.Context
	MaxStates      int
	StopAtDeadlock bool
	Seed           SeedStrategy
	// Proviso enables the cycle proviso used by LTL-preserving reducers
	// such as SPIN+PO: whenever a reduced expansion closes a cycle of the
	// depth-first search, the state is expanded fully. The proviso is not
	// required for deadlock detection, but emulates the behavior the paper
	// observed for SPIN+PO (e.g. no reduction at all on RW).
	Proviso bool
	// Metrics, if non-nil, receives exploration statistics under the
	// "stubborn." prefix (see OBSERVABILITY.md). Nil costs nothing.
	Metrics *obs.Registry
	// Progress, if non-nil, gains one per distinct state found.
	Progress *obs.Counter
	// Trace, if non-nil, records flight-recorder events: states, firings,
	// one stubborn event per set computation (set size vs enabled count),
	// and a terminal abort event on cancellation.
	Trace *trace.Tracer
}

// Result summarizes a reduced exploration.
type Result struct {
	States    int
	Arcs      int
	Deadlock  bool
	Deadlocks []petri.Marking
	Complete  bool
}

// StubbornEnabled returns the enabled members of a stubborn set for
// marking m, in increasing order. The result is empty iff m is a deadlock.
func StubbornEnabled(n *petri.Net, m petri.Marking, seed SeedStrategy) []petri.Trans {
	c := newCloser(n)
	return c.stubborn(nil, m, n.EnabledTrans(m), seed)
}

// closer computes stubborn sets with scratch that is reused from state
// to state, so a set costs no allocation once the buffers have grown.
type closer struct {
	n *petri.Net
	// stamp[t] == epoch marks t a member of the set being grown; bumping
	// epoch (newSet) empties the set.
	stamp []uint32
	epoch uint32
	work  []petri.Trans
	cand  []petri.Trans // SeedBest: the candidate being compared with the best
}

func newCloser(n *petri.Net) *closer {
	return &closer{n: n, stamp: make([]uint32, n.NumTrans())}
}

func (c *closer) newSet() {
	c.epoch++
	if c.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(c.stamp)
		c.epoch = 1
	}
}

// add puts t in the member set and reports whether it was new.
func (c *closer) add(t petri.Trans) bool {
	fresh := c.stamp[t] != c.epoch
	c.stamp[t] = c.epoch
	return fresh
}

// stubborn appends to dst the enabled members of a stubborn set for m,
// whose enabled transitions are given, and returns the extended slice.
func (c *closer) stubborn(dst []petri.Trans, m petri.Marking, enabled []petri.Trans, seed SeedStrategy) []petri.Trans {
	if len(enabled) == 0 {
		return dst
	}
	base := len(dst)
	dst = c.closure(dst, m, enabled, enabled[0])
	if seed == SeedFirst {
		return dst
	}
	for _, s := range enabled[1:] {
		if len(dst)-base == 1 {
			break
		}
		c.cand = c.closure(c.cand[:0], m, enabled, s)
		if len(c.cand) < len(dst)-base {
			dst = append(dst[:base], c.cand...)
		}
	}
	return dst
}

// closure appends to dst the enabled members of the stubborn set grown
// from seed, in increasing order; enabled lists m's enabled transitions,
// increasing.
func (c *closer) closure(dst []petri.Trans, m petri.Marking, enabled []petri.Trans, seed petri.Trans) []petri.Trans {
	n := c.n
	c.newSet()
	c.add(seed)
	work := append(c.work[:0], seed)
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		if n.Enabled(m, t) {
			// D2: all competitors for t's input tokens must be in the set.
			for _, p := range n.Pre(t) {
				for _, u := range n.PostT(p) {
					if c.add(u) {
						work = append(work, u)
					}
				}
			}
			continue
		}
		// D1: pick one unmarked input place; only its producers can make t
		// enabled, so they must be in the set.
		for _, p := range n.Pre(t) {
			if !m.Has(p) {
				for _, u := range n.PreT(p) {
					if c.add(u) {
						work = append(work, u)
					}
				}
				break
			}
		}
	}
	c.work = work
	for _, t := range enabled {
		if c.stamp[t] == c.epoch {
			dst = append(dst, t)
		}
	}
	return dst
}

// frame is a DFS stack entry. Its stubborn set is fires[lo:hi] of the
// exploration's flat firing stack, which grows and shrinks with the DFS
// stack: the top frame's set is always the tail.
type frame struct {
	id      int
	lo, hi  int
	next    int  // index into fires of the next transition to fire
	reduced bool // the set is a strict subset of the enabled transitions
	full    bool // proviso already applied
}

// Explore enumerates the stubborn-set-reduced state space of n
// depth-first.
func Explore(n *petri.Net, opts Options) (*Result, error) {
	defer opts.Metrics.StartSpan("stubborn.explore").End()
	var (
		cStates  = opts.Metrics.Counter("stubborn.states")
		cArcs    = opts.Metrics.Counter("stubborn.arcs")
		cDead    = opts.Metrics.Counter("stubborn.deadlocks")
		cKey     = opts.Metrics.Counter("stubborn.key_singletons")
		cProviso = opts.Metrics.Counter("stubborn.proviso_expansions")
		hSetSize = opts.Metrics.Histogram("stubborn.set_size")
	)
	res := &Result{Complete: true}
	tk := opts.Trace.NewTrack("stubborn")
	phExplore := opts.Trace.Intern("explore")
	tk.Begin(phExplore)

	var (
		store   visited.Store
		onStack []bool // by state id
		stack   []frame
		fires   []petri.Trans
		enabled []petri.Trans
		scratch = n.EmptyMarking() // every firing's successor lands here first
		limit   = visited.Limit(opts.MaxStates)
		closer  = newCloser(n)
	)
	stopped := func() *Result {
		res.States = store.Len()
		res.Complete = false
		return res
	}

	// enter interns m (a copy: m may be the scratch marking), records a
	// deadlock and otherwise pushes the new state's frame. It reports
	// whether the search must stop at a deadlock.
	enter := func(m petri.Marking, hash uint64, fired petri.Trans) (stop bool) {
		id := store.Insert(m, hash)
		m = store.At(id)
		onStack = append(onStack, true)
		cStates.Inc()
		opts.Progress.Add(1)
		tk.State(int64(id), 0)
		if fired >= 0 {
			tk.Fire(int64(fired), int64(id))
		}
		enabled = n.AppendEnabled(enabled[:0], m)
		if len(enabled) == 0 {
			res.Deadlock = true
			res.Deadlocks = append(res.Deadlocks, m)
			cDead.Inc()
			if opts.StopAtDeadlock {
				return true
			}
		}
		lo := len(fires)
		fires = closer.stubborn(fires, m, enabled, opts.Seed)
		size := len(fires) - lo
		tk.Stubborn(int64(size), int64(len(enabled)))
		if size > 0 {
			hSetSize.Observe(int64(size))
			if size == 1 {
				// A singleton stubborn set: the reducer found a "key"
				// transition that can be fired alone.
				cKey.Inc()
			}
		}
		stack = append(stack, frame{id: id, lo: lo, hi: len(fires), next: lo, reduced: size < len(enabled)})
		return false
	}

	m0 := n.InitialMarking()
	if enter(m0, m0.Hash(), -1) {
		return stopped(), nil
	}

	cancel := stop.Every(opts.Ctx, 64)
	for len(stack) > 0 {
		if err := cancel.Poll(); err != nil {
			tk.Abort(opts.Trace.Intern(err.Error()))
			return stopped(), fmt.Errorf("stubborn: aborted: %w", err)
		}
		f := &stack[len(stack)-1]
		if f.next >= f.hi {
			onStack[f.id] = false
			fires = fires[:f.lo]
			stack = stack[:len(stack)-1]
			continue
		}
		t := fires[f.next]
		f.next++
		m := store.At(f.id)
		if !n.FireInto(scratch, m, t) {
			return nil, fmt.Errorf("stubborn: net %s is not safe (firing %s)",
				n.Name(), n.TransName(t))
		}
		hash := scratch.Hash()
		nid := store.Lookup(scratch, hash)
		if nid < 0 && store.Len() >= limit {
			// Like reach: exactly MaxStates states, and the firing that
			// would have interned one more is not recorded.
			return stopped(), ErrStateLimit
		}
		res.Arcs++
		cArcs.Inc()
		if nid < 0 {
			if enter(scratch, hash, t) { // invalidates f
				return stopped(), nil
			}
			continue
		}
		tk.Fire(int64(t), int64(nid))
		if opts.Proviso && onStack[nid] && f.reduced && !f.full {
			// Cycle proviso: the reduced expansion closed a DFS cycle;
			// expand the state fully so no transition is ignored forever.
			f.full = true
			cProviso.Inc()
			closer.newSet()
			for _, u := range fires[f.lo:f.hi] {
				closer.add(u)
			}
			enabled = n.AppendEnabled(enabled[:0], m)
			for _, u := range enabled {
				if closer.add(u) {
					fires = append(fires, u)
				}
			}
			f.hi = len(fires)
		}
	}
	res.States = store.Len()
	tk.End(phExplore)
	return res, nil
}
