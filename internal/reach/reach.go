// Package reach implements conventional reachability analysis of safe Petri
// nets (Section 2.2 of the paper): exhaustive enumeration of the reachable
// markings, deadlock detection, safety-predicate checking and liveness
// queries over the full reachability graph RG(N).
//
// This engine is the ground truth the reduced analyses (internal/stubborn,
// internal/symbolic, internal/core) are validated against, and it produces
// the "States" column of Table 1. Exploration is breadth-first. With
// Options.Workers ≥ 2 a run starts sequential and hands its first level of
// at least levelWidth positions to the owner-computes parallel explorer
// (parallel.go: one visited store per worker), which produces
// bit-identical Results.
package reach

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

// ErrStateLimit is returned when exploration would exceed Options.MaxStates.
var ErrStateLimit = errors.New("reach: state limit exceeded")

// ErrUnsafe is returned when a firing would place a second token on a
// place; the net then violates the paper's safety (1-boundedness)
// assumption and none of the analyses apply.
var ErrUnsafe = errors.New("reach: net is not safe")

// Options configures an exploration.
type Options struct {
	// Ctx, if non-nil, is polled cooperatively during the search: once it
	// is cancelled (deadline, client disconnect) the exploration stops
	// within a bounded number of states and Explore returns the partial
	// Result so far (Complete: false) together with the context's error.
	// A nil Ctx costs one branch per state and never stops anything.
	Ctx context.Context
	// MaxStates caps the search at exactly this many distinct states; the
	// search stops with ErrStateLimit when one more would be interned, and
	// the firing that would have exceeded the cap is not recorded (no arc,
	// no edge). Zero means no limit.
	MaxStates int
	// Workers ≥ 2 lets a run share its wide BFS levels among that many
	// worker goroutines; 0 and 1 are the classical sequential BFS. Such a
	// run starts sequential and, at the first level boundary whose
	// frontier holds levelWidth positions, hands the run over to the
	// parallel explorer, which returns Results identical to Workers: 0 —
	// same States, Arcs and Deadlocks/BadStates order — by merging each
	// BFS level's discoveries in deterministic (parent, transition) order.
	// StopAtDeadlock and StopAtBad are latency-oriented early exits whose
	// stop point is inherently scan-order-dependent, and a stored graph is
	// built by the sequential engine alone, so those runs never hand over.
	// After a handoff the Bad predicate may be called from multiple
	// goroutines, so with Workers ≥ 2 it must be safe for concurrent use.
	Workers int
	// StopAtDeadlock halts the search at the first deadlock found.
	StopAtDeadlock bool
	// StoreGraph retains the full reachability graph in the result; needed
	// for liveness queries and DOT export.
	StoreGraph bool
	// Bad, if non-nil, is a safety predicate: exploration records (and with
	// StopAtBad halts at) markings for which Bad returns true.
	Bad func(petri.Marking) bool
	// StopAtBad halts the search at the first Bad marking.
	StopAtBad bool
	// Metrics, if non-nil, receives exploration statistics under the
	// "reach." prefix (see OBSERVABILITY.md). Nil costs nothing.
	Metrics *obs.Registry
	// Progress, if non-nil, gains one per distinct state found.
	Progress *obs.Counter
	// Trace, if non-nil, records flight-recorder events: one state event
	// per interned marking, one fire event per explored arc, phase
	// brackets, and a terminal abort event on cancellation. A run that
	// hands over (Workers ≥ 2) also gets one track per worker there, where
	// the parallel explorer records its firings. Nil costs one branch per
	// event.
	Trace *trace.Tracer
	// Ckpt, if non-nil, enables checkpointing: the hook is polled at
	// every BFS level boundary (the boundary coordinate is the count of
	// expanded levels) and can save a Snapshot (stop.Save) or save one
	// and suspend the run (stop.Suspend, returning the partial Result
	// with stop.ErrSuspended). Incompatible with StoreGraph.
	// Like Metrics and Trace, the hook only observes and suspends — it
	// never changes which states an uninterrupted run explores.
	Ckpt *stop.Hook[*Snapshot]
	// Resume, if non-nil, restores the exploration from a Snapshot
	// instead of starting at the initial marking; both the sequential
	// and the parallel engine re-enter at the saved level boundary and
	// produce Results bit-identical to the uninterrupted run.
	// Incompatible with StoreGraph.
	Resume *Snapshot
}

// Edge is one arc of the reachability graph: firing T from the source
// state leads to state To.
type Edge struct {
	T  petri.Trans
	To int
}

// Graph is an explicitly stored reachability graph. States[0] is the
// initial marking.
type Graph struct {
	Net    *petri.Net
	States []petri.Marking
	Edges  [][]Edge
}

// Result summarizes an exploration.
type Result struct {
	States    int  // number of distinct reachable markings found
	Arcs      int  // number of firings explored
	Deadlock  bool // a reachable marking enables no transition
	Deadlocks []petri.Marking
	BadFound  bool // Options.Bad held in some reachable marking
	BadStates []petri.Marking
	Graph     *Graph // non-nil iff Options.StoreGraph
	Complete  bool   // false if the search stopped early
}

// Explore enumerates the reachable markings of n breadth-first. With
// Options.Workers ≥ 2 (and no early stop or stored graph) the run hands
// its first wide BFS level to a pool of workers, each over the visited
// store it owns; the Result is identical to the sequential one.
func Explore(n *petri.Net, opts Options) (*Result, error) {
	if err := validateCkptOptions(opts); err != nil {
		return nil, err
	}
	defer opts.Metrics.StartSpan("reach.explore").End()
	shared := opts.Workers >= 2 && !opts.StopAtDeadlock && !opts.StopAtBad && !opts.StoreGraph
	r := &run{tk: opts.Trace.NewTrack("reach")}
	if shared {
		r.hBatch = opts.Metrics.Histogram("reach.batch_sizes")
	}
	phExplore := opts.Trace.Intern("explore")
	r.tk.Begin(phExplore)
	res, err := exploreSeq(n, opts, r, shared)
	if err == nil && res.Complete {
		r.tk.End(phExplore)
	}
	// The counts are published once on the way out, on every return path,
	// rather than per event: the per-state work is a hash insert, so even
	// uncontended atomics would be measurable.
	if reg := opts.Metrics; reg != nil {
		reg.Counter("reach.states").Add(int64(r.res.States))
		reg.Counter("reach.arcs").Add(int64(r.res.Arcs))
		reg.Counter("reach.deadlocks").Add(int64(len(r.res.Deadlocks)))
		reg.Counter("reach.bad_states").Add(int64(len(r.res.BadStates)))
		reg.Gauge("reach.queue_peak").SetMax(int64(r.qPeak))
		if shared {
			reg.Gauge("reach.workers").Set(int64(opts.Workers))
			reg.Counter("reach.batches").Add(r.batches)
		}
	}
	return res, err
}

// run is the account of one Explore call, whichever engine does the work:
// across a handoff the sequential prefix and the parallel rest share one
// trace track, one progress count and one metrics export.
type run struct {
	res     *Result        // the engine's Result, also on an error path
	tk      *trace.Track   // the "reach" track: states, phases, aborts
	qPeak   int            // queue high-water mark, or peak level size
	batches int64          // levels a shared run expanded
	hBatch  *obs.Histogram // their sizes
}

// exploreSeq is the classical sequential BFS, the reference the parallel
// explorer must reproduce exactly. With handoff set it stops at the first
// level boundary whose frontier holds levelWidth positions, after the
// Ckpt poll there, and hands that boundary's Snapshot to exploreParallel;
// a resumed run it hands over at once.
func exploreSeq(n *petri.Net, opts Options, r *run, handoff bool) (*Result, error) {
	if handoff && opts.Resume != nil {
		return exploreParallel(n, opts, r, opts.Resume)
	}
	res := &Result{Complete: true}
	r.res = res
	tk := r.tk
	var g *Graph
	if opts.StoreGraph {
		g = &Graph{Net: n}
		res.Graph = g
	}

	var store visited.Store
	scratch := n.EmptyMarking() // every firing's successor lands here first
	var en []petri.Trans        // the expanded state's enabled transitions
	limit := visited.Limit(opts.MaxStates)
	// Verdict ids mirror res.Deadlocks/res.BadStates for the snapshot;
	// maintained unconditionally (two appends per verdict is noise next
	// to the per-state hash insert).
	var deadIDs, badIDs []int

	// finish fills the state count (and the stored graph's states) on
	// every return path that hands out a Result.
	finish := func(complete bool) {
		res.States = store.Len()
		res.Complete = complete
		if opts.StoreGraph {
			g.States = markings(&store)
		}
	}

	// add interns m (a copy: m may be the scratch marking) under the next
	// id, the store's length.
	add := func(m petri.Marking, hash uint64) int {
		id := store.Insert(m, hash)
		if opts.StoreGraph {
			g.Edges = append(g.Edges, nil)
		}
		opts.Progress.Add(1)
		tk.State(int64(id), 0)
		return id
	}

	checkState := func(id int) (stop bool) {
		m := store.At(id)
		if opts.Bad != nil && opts.Bad(m) {
			res.BadFound = true
			res.BadStates = append(res.BadStates, m)
			badIDs = append(badIDs, id)
			if opts.StopAtBad {
				return true
			}
		}
		if n.IsDeadlock(m) {
			res.Deadlock = true
			res.Deadlocks = append(res.Deadlocks, m)
			deadIDs = append(deadIDs, id)
			if opts.StopAtDeadlock {
				return true
			}
		}
		return false
	}

	// Ids are handed out in discovery order and expanded in id order, so
	// the BFS queue is the id range [next, store.Len()) and needs no
	// storage of its own.
	next := 0
	// levelEnd is the id at which the next level boundary fires: once
	// the BFS is about to expand it, every state below it has been expanded
	// and the states from it onward are exactly the unexpanded frontier.
	// levels counts boundaries passed = fully expanded levels.
	levelEnd := 0
	levels := 0

	if sn := opts.Resume; sn != nil {
		if err := validateResume(n, sn); err != nil {
			return nil, err
		}
		for id, m := range sn.States {
			h := m.Hash()
			if store.Lookup(m, h) >= 0 {
				return nil, fmt.Errorf("reach: resume: duplicate marking at state %d", id)
			}
			store.Insert(m, h)
		}
		res.Arcs = sn.Arcs
		restoreVerdicts(res, sn.States, sn)
		deadIDs = append(deadIDs, sn.DeadIDs...)
		badIDs = append(badIDs, sn.BadIDs...)
		next = sn.FrontierStart
		// The restored frontier is level number sn.Levels; the next
		// boundary — after expanding it — has sn.Levels+1 levels done.
		levelEnd = store.Len()
		levels = sn.Levels + 1
		opts.Progress.Add(int64(store.Len()))
	} else {
		m0 := n.InitialMarking()
		add(m0, m0.Hash())
		if checkState(0) {
			finish(false)
			return res, nil
		}
	}

	cancel := stop.Every(opts.Ctx, 64)
	for id := next; id < store.Len(); id++ {
		if id >= levelEnd {
			if err := opts.Ckpt.At(store.Len(), int64(levels), func() *Snapshot {
				return snapshotAt(markings(&store), id, res.Arcs, deadIDs, badIDs, levels)
			}); err != nil {
				finish(false)
				return res, err
			}
			if handoff {
				width := store.Len() - id
				if width >= levelWidth {
					return exploreParallel(n, opts, r, snapshotAt(markings(&store), id, res.Arcs, deadIDs, badIDs, levels))
				}
				r.batches++
				r.hBatch.Observe(int64(width))
			}
			levels++
			levelEnd = store.Len()
		}
		if err := cancel.Poll(); err != nil {
			finish(false)
			tk.Abort(opts.Trace.Intern(err.Error()))
			return res, fmt.Errorf("reach: aborted: %w", err)
		}
		m := store.At(id)
		en = n.AppendEnabled(en[:0], m)
		for _, t := range en {
			if !n.FireInto(scratch, m, t) {
				return nil, fmt.Errorf("%w: firing %s from %s double-marks a place",
					ErrUnsafe, n.TransName(t), m.String(n))
			}
			hash := scratch.Hash()
			nid := store.Lookup(scratch, hash)
			fresh := nid < 0
			if fresh {
				if store.Len() >= limit {
					finish(false)
					return res, ErrStateLimit
				}
				nid = add(scratch, hash)
			}
			res.Arcs++
			tk.Fire(int64(t), int64(nid))
			if opts.StoreGraph {
				g.Edges[id] = append(g.Edges[id], Edge{T: t, To: nid})
			}
			if fresh {
				if checkState(nid) {
					finish(false)
					return res, nil
				}
				if live := store.Len() - id - 1; live > r.qPeak {
					r.qPeak = live
				}
			}
		}
	}

	finish(true)
	return res, nil
}

// markings lists the store's markings in id order, as arena views.
func markings(s *visited.Store) []petri.Marking {
	out := make([]petri.Marking, s.Len())
	for id := range out {
		out[id] = s.At(id)
	}
	return out
}

// CountStates is a convenience that returns just the size of the full
// reachable state space.
func CountStates(n *petri.Net) (int, error) {
	r, err := Explore(n, Options{})
	if err != nil {
		return 0, err
	}
	return r.States, nil
}
