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
	// SeedDefault, the zero value, is the policy verify serves: best seed,
	// as SeedBest, or under the cycle proviso the first enabled transition,
	// where best seed explores more (asat(8): 6 323 states first seed,
	// 32 083 best seed).
	SeedDefault SeedStrategy = iota
	// SeedBest tries every enabled transition as seed, under the proviso
	// too, and keeps the first stubborn set with the fewest enabled
	// members. A candidate closure is abandoned once it cannot be strictly
	// smaller than the best so far, so a search with it costs less than
	// one from the first seed on the Table 1 nets (nsdp(8): 6 341 states
	// in 7 ms against 71 656 in 53 ms).
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
	// Seed picks the closure's seed; the zero value is SeedDefault.
	Seed SeedStrategy
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

// closer computes stubborn sets with scratch that is reused from state
// to state, so a set costs no allocation once the buffers have grown.
type closer struct {
	n *petri.Net
	// stamp[t] == epoch marks t a member of the set being grown; bumping
	// epoch (newSet) empties the set.
	stamp []uint32
	epoch uint32
	// on[t] == state marks t enabled at the state being expanded.
	on    []uint32
	state uint32
	work  []petri.Trans
	// members counts the enabled members of the set being grown.
	members int
	cand    []petri.Trans // best seed: the candidate being compared with the best
}

func newCloser(n *petri.Net) *closer {
	return &closer{n: n, stamp: make([]uint32, n.NumTrans()), on: make([]uint32, n.NumTrans())}
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
// The set is grown from the first enabled transition, or with best from
// every one, keeping the first of the smallest.
func (c *closer) stubborn(dst []petri.Trans, m petri.Marking, enabled []petri.Trans, best bool) []petri.Trans {
	if len(enabled) == 0 {
		return dst
	}
	if c.state++; c.state == 0 {
		clear(c.on)
		c.state = 1
	}
	for _, t := range enabled {
		c.on[t] = c.state
	}
	base := len(dst)
	dst, _ = c.closure(dst, m, enabled, enabled[0], 0)
	if !best {
		return dst
	}
	for _, s := range enabled[1:] {
		size := len(dst) - base
		if size == 1 {
			break
		}
		var smaller bool
		if c.cand, smaller = c.closure(c.cand[:0], m, enabled, s, size); smaller {
			dst = append(dst[:base], c.cand...)
		}
	}
	return dst
}

// closure appends to dst the enabled members of the stubborn set grown
// from seed, in increasing order, and reports true; enabled lists m's
// enabled transitions, increasing. A bound > 0 is the size of the best
// set of the enabled transitions below seed, each tried as a seed
// already: the closure gives up, appending nothing and reporting false,
// once its set cannot have fewer than bound enabled members — when it
// holds bound of them, or when it reaches an enabled transition below
// seed, whose whole set it then contains (a member's closure is a subset
// of the closure that reached it).
func (c *closer) closure(dst []petri.Trans, m petri.Marking, enabled []petri.Trans, seed petri.Trans, bound int) ([]petri.Trans, bool) {
	n := c.n
	c.newSet()
	c.add(seed)
	c.work = append(c.work[:0], seed)
	c.members = 1
	for len(c.work) > 0 {
		t := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		if c.on[t] == c.state {
			// D2: all competitors for t's input tokens must be in the set.
			for _, p := range n.Pre(t) {
				if !c.pull(n.PostT(p), seed, bound) {
					return dst, false
				}
			}
			continue
		}
		// D1: pick one unmarked input place; only its producers can make t
		// enabled, so they must be in the set.
		for _, p := range n.Pre(t) {
			if !m.Has(p) {
				if !c.pull(n.PreT(p), seed, bound) {
					return dst, false
				}
				break
			}
		}
	}
	for _, t := range enabled {
		if c.stamp[t] == c.epoch {
			dst = append(dst, t)
		}
	}
	return dst, true
}

// pull adds ts to the set grown from seed and queues the new members. It
// reports false when closure must give up under bound.
func (c *closer) pull(ts []petri.Trans, seed petri.Trans, bound int) bool {
	for _, u := range ts {
		if !c.add(u) {
			continue
		}
		if c.on[u] == c.state {
			if c.members++; bound > 0 && (c.members == bound || u < seed) {
				return false
			}
		}
		c.work = append(c.work, u)
	}
	return true
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
		best    = opts.Seed == SeedBest || !opts.Proviso
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
		fires = closer.stubborn(fires, m, enabled, best)
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
