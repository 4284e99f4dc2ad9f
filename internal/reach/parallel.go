package reach

// Owner-computes parallel frontier-batch exploration. The 256 hash shards
// of shardOf are split into one contiguous range per worker (shardRanges),
// and every worker owns exactly one visited.Store that only it touches while workers run:
// there is no lock anywhere. A BFS level wide enough to share (levelWidth)
// is two barrier-separated phases:
//
//   - expand: workers pull chunks of level positions, fire every enabled
//     transition into a scratch marking and hash it; a successor the
//     worker owns is claimed in its store at once, any other is appended —
//     order key, hash, marking words — to this worker's one flat buffer;
//   - absorb: every owner picks its successors out of the other workers'
//     buffers (the hash names the owner) into its store, min-combining
//     order keys, and sorts its own discoveries.
//
// Determinism is recovered at the level boundary: a new marking is
// pending under the minimal order key (parent position in the level,
// transition id) of the firings that reached it, and the owners' sorted
// discoveries are merged and given state ids in that order — exactly the
// order the sequential BFS first encounters them. A narrower level is
// scanned in that order by the calling goroutine alone, which interns a
// new marking on the spot in the store that owns it: no buffer, no merge.
// Either way States, Arcs, Deadlocks/BadStates order, the stored Graph,
// and even the stop points of MaxStates and ErrUnsafe reproduce the
// Workers: 0 run bit for bit. The order key and the stop-point arithmetic
// close this file.
//
// A worker reads another's store only through the views of a level's
// parent markings, taken while every store is quiescent (arena chunks
// never move), so nobody reads a store its owner is growing.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
	"repro/internal/visited"
)

// levelWidth is the number of level positions that pays for one more
// worker: a level of n positions runs on 1 + n/levelWidth workers (at most
// Options.Workers), so one narrower than levelWidth runs inline. Fixed
// from the crossover measurement in EXPERIMENTS.md; a variable only so the
// tests can force the routed path on small nets.
var levelWidth = 8192

// worker is one owner of the partitioned visited store plus the scratch
// it expands with. gid maps the store's local ids to global state ids (-1:
// cut off by MaxStates). Local ids from len(gid) on are the pending
// discoveries of a routed level: pend[local-len(gid)] carries the minimal
// order key that reached each so far, and is sorted by it once the level
// is absorbed.
type worker struct {
	id    uint32 // index in the owner list
	store visited.Store
	gid   []int32
	pend  []discovery
	head  int // first of the sorted pend the level merge has not taken yet

	out    []uint64      // successors routed to other owners: (order, hash, words...) each
	next   petri.Marking // scratch successor
	en     []petri.Trans // scratch: the enabled transitions of the parent at hand
	vio    *violation    // scan-order-first unsafe firing this worker saw
	cancel *stop.Checker
	tk     *trace.Track // nil when not tracing
}

// claim looks a successor up in the worker's own store: a new marking
// becomes a pending discovery under order, a pending one keeps the
// smaller order key.
func (w *worker) claim(m petri.Marking, hash, order uint64) {
	local := w.store.Lookup(m, hash)
	if local < 0 {
		local = w.store.Insert(m, hash)
		w.pend = append(w.pend, discovery{Order: order, Shard: w.id, Local: int32(local)})
	} else if p := local - len(w.gid); p >= 0 && order < w.pend[p].Order {
		w.pend[p].Order = order
	}
}

// span is what a worker records per expanded position of a routed level:
// the parent's safe firings and its verdicts.
type span struct {
	n         int32
	dead, bad bool
}

// violation records an unsafe firing so the merge can report the
// scan-order-first one with the same error as the sequential engine.
type violation struct {
	order uint64
	t     petri.Trans
	m     petri.Marking
}

func (v *violation) err(n *petri.Net) error {
	return fmt.Errorf("%w: firing %s from %s double-marks a place", ErrUnsafe, n.TransName(v.t), v.m.String(n))
}

// exploreParallel is the Workers > 0 path of Explore. Early-stop options
// are routed to the sequential engine before this is called.
func exploreParallel(n *petri.Net, opts Options) (*Result, error) {
	defer opts.Metrics.StartSpan("reach.explore").End()
	res := &Result{Complete: true}
	var (
		qPeak   int
		batches int64
	)
	hBatch := opts.Metrics.Histogram("reach.batch_sizes")
	if opts.Metrics != nil {
		// Same export-once-on-exit discipline as the sequential engine,
		// plus the parallel-only worker/batch metrics.
		defer func() {
			exportMetrics(opts.Metrics, res, qPeak)
			opts.Metrics.Gauge("reach.workers").Set(int64(opts.Workers))
			opts.Metrics.Counter("reach.batches").Add(batches)
		}()
	}
	// The merge loop owns the "reach" track; each worker owns its own
	// lane, so ring writes stay single-goroutine (the phase barrier orders
	// a worker's level-k writes before whoever runs it at level k+1).
	tk := opts.Trace.NewTrack("reach")
	phExplore := opts.Trace.Intern("explore")
	tk.Begin(phExplore)
	graph := opts.StoreGraph
	var g *Graph
	if graph {
		g = &Graph{Net: n}
		res.Graph = g
	}
	isBad := func(m petri.Marking) bool { return opts.Bad != nil && opts.Bad(m) }

	ranges := shardRanges(min(opts.Workers, numShards))
	var ownerOf [numShards]uint8
	ws := make([]*worker, len(ranges))
	for o, r := range ranges {
		for sh := r[0]; sh < r[1]; sh++ {
			ownerOf[sh] = uint8(o)
		}
		ws[o] = &worker{id: uint32(o), next: n.EmptyMarking(), cancel: stop.Every(opts.Ctx, 64)}
		if opts.Trace != nil {
			ws[o].tk = opts.Trace.NewTrack(fmt.Sprintf("reach-w%d", o))
		}
	}

	// Per-level scratch, reused so steady-state exploration does not
	// reallocate with every batch. views holds the level's parent markings
	// by position — the ids [lo, lo+len(views)) — and next collects the
	// level being discovered; spans is what routed workers record per
	// position.
	var (
		views, next []petri.Marking
		spans       []span
		discovered  []discovery
		cursor      atomic.Int64
		expanders   int // workers expanding the routed level at hand
	)
	// states counts the global ids handed out. markings inverts the
	// owners' gid lists into the id-ordered arena views; like intern it is
	// for the merge loop, with the workers quiesced.
	states := 0
	markings := func() []petri.Marking {
		all := make([]petri.Marking, states)
		for _, w := range ws {
			for local, id := range w.gid {
				if id >= 0 {
					all[id] = w.store.At(local)
				}
			}
		}
		return all
	}
	// intern establishes an owner-local marking under the next global id
	// and makes it a parent of the next level.
	intern := func(w *worker, local int) {
		w.gid[local] = int32(states)
		next = append(next, w.store.At(local))
		if graph {
			g.Edges = append(g.Edges, nil)
		}
		opts.Progress.Add(1)
		tk.State(int64(states), 0)
		states++
	}
	limit := visited.Limit(opts.MaxStates)

	// levels counts fully expanded BFS levels: at the top of the loop the
	// ids from lo on are level number `levels`, exactly the boundary
	// coordinate of the sequential engine's snapshots. The verdict id
	// lists mirror res.Deadlocks/res.BadStates for checkpointing.
	lo, levels := 0, 0
	var deadIDs, badIDs []int
	record := func(id int, m petri.Marking, bad, dead bool) {
		if bad {
			res.BadFound = true
			res.BadStates = append(res.BadStates, m)
			badIDs = append(badIDs, id)
		}
		if dead {
			res.Deadlock = true
			res.Deadlocks = append(res.Deadlocks, m)
			deadIDs = append(deadIDs, id)
		}
	}
	// A level's parents get their verdicts when they are expanded. On
	// resume the frontier's were restored from the snapshot, so the first
	// level must not record them again; the resume point itself is the
	// boundary the checkpoint was taken at, so its poll is skipped too.
	resumed := false

	first := []petri.Marking{n.InitialMarking()}
	if sn := opts.Resume; sn != nil {
		if err := validateResume(n, sn); err != nil {
			return nil, err
		}
		first = sn.States
		res.Arcs = sn.Arcs
		restoreVerdicts(res, sn.States, sn)
		deadIDs = append(deadIDs, sn.DeadIDs...)
		badIDs = append(badIDs, sn.BadIDs...)
		lo, levels = sn.FrontierStart, sn.Levels
		resumed = true
	}
	for id, m := range first {
		h := m.Hash()
		w := ws[ownerOf[shardOf(h)]]
		if w.store.Lookup(m, h) >= 0 {
			return nil, fmt.Errorf("reach: resume: duplicate marking at state %d", id)
		}
		w.gid = append(w.gid, int32(id))
		if local := w.store.Insert(m, h); id >= lo {
			views = append(views, w.store.At(local))
		}
	}
	states = len(first)
	opts.Progress.Add(int64(states))
	if opts.Resume == nil {
		tk.State(0, 0)
		if graph {
			g.Edges = append(g.Edges, nil)
		}
	}
	words := n.Words()

	// inline expands a narrow level on the calling goroutine, as worker 0.
	// Positions are scanned in order, so first-encounter order is scan
	// order: a new marking is interned at once in the store that owns it,
	// and the scan stops where the sequential engine would.
	inline := func() error {
		me := ws[0]
		for pos, m := range views {
			if err := me.cancel.Poll(); err != nil {
				return err
			}
			me.en = n.AppendEnabled(me.en[:0], m)
			for _, t := range me.en {
				if !n.FireInto(me.next, m, t) {
					return (&violation{t: t, m: m}).err(n)
				}
				hash := me.next.Hash()
				ow := ws[ownerOf[shardOf(hash)]]
				local := ow.store.Lookup(me.next, hash)
				if local < 0 {
					if states >= limit {
						// The parents from here on were checked by the
						// sequential engine when it discovered them.
						for ; pos < len(views) && !resumed; pos++ {
							record(lo+pos, views[pos], isBad(views[pos]), n.IsDeadlock(views[pos]))
						}
						return ErrStateLimit
					}
					local = ow.store.Insert(me.next, hash)
					ow.gid = append(ow.gid, 0)
					intern(ow, local)
				}
				res.Arcs++
				if graph {
					g.Edges[lo+pos] = append(g.Edges[lo+pos], Edge{T: t, To: int(ow.gid[local])})
				}
				if me.tk != nil { // the id is a cache miss per arc
					me.tk.Fire(int64(t), int64(ow.gid[local]))
				}
			}
			if !resumed {
				record(lo+pos, m, isBad(m), len(me.en) == 0)
			}
		}
		return nil
	}

	// expand is the first phase of a routed level for worker wi. What it
	// reads or appends to per firing is held in locals: the worker structs
	// lie next to each other in memory, and a neighbour's inserts must not
	// keep invalidating the line this worker's loop runs on.
	expand := func(wi int) {
		const chunk = 16
		me := ws[wi]
		next, en, out, cancel, wtk := me.next, me.en, me.out[:0], me.cancel, me.tk
		me.vio = nil
		for clo := 0; clo < len(views) && cancel.Poll() == nil; {
			clo = int(cursor.Add(chunk)) - chunk
			for pos := clo; pos < min(clo+chunk, len(views)); pos++ {
				m := views[pos]
				fired := 0
				en = n.AppendEnabled(en[:0], m)
				for _, t := range en {
					order := orderKey(pos, t)
					if !n.FireInto(next, m, t) {
						if me.vio == nil || order < me.vio.order {
							me.vio = &violation{order: order, t: t, m: m}
						}
						continue
					}
					fired++
					// One hash routes the owner and indexes its table.
					hash := next.Hash()
					if int(ownerOf[shardOf(hash)]) == wi {
						me.claim(next, hash, order)
					} else {
						out = append(append(out, order, hash), next...)
					}
					// The target's id is not known before the level merge,
					// whose state events carry the definitive ids.
					wtk.Fire(int64(t), -1)
				}
				spans[pos] = span{n: int32(fired), dead: len(en) == 0, bad: isBad(m)}
			}
		}
		me.en, me.out = en, out
	}
	// absorb is the second phase, for owner o: it picks its markings out of
	// what the expanders routed (the hash names the owner again) and sorts
	// its pending ones into discovery order.
	absorb := func(o int) {
		ow := ws[o]
		for _, src := range ws[:expanders] {
			if src == ow {
				continue // it claimed its own successors on the spot
			}
			for buf := src.out; len(buf) > 0; buf = buf[2+words:] {
				if int(ownerOf[shardOf(buf[1])]) == o {
					ow.claim(buf[2:2+words], buf[1], buf[0])
				}
			}
		}
		sortDiscoveries(ow.pend)
		for range ow.pend {
			ow.gid = append(ow.gid, -1)
		}
	}
	// fan runs one phase on k goroutines, the caller being number 0.
	fan := func(k int, phase func(int)) {
		var wg sync.WaitGroup
		for i := 1; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				phase(i)
			}()
		}
		phase(0)
		wg.Wait()
	}
	// routed expands a level on nw workers, absorbs it on one per owner
	// and merges what they found.
	routed := func(nw int) error {
		spans = slices.Grow(spans[:0], len(views))[:len(views)]
		cursor.Store(0)
		expanders = nw
		fan(nw, expand)
		// A cancelled context makes workers bail mid-level, leaving the
		// per-position scratch only partially filled; merging it would
		// fabricate verdicts.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return opts.Ctx.Err()
		}
		fan(len(ws), absorb)
		// The parents were interned (and in the sequential engine, checked)
		// in id order before any state of the next level, so appending
		// here preserves the global id order of the verdict lists.
		if !resumed {
			for pos, sp := range spans {
				record(lo+pos, views[pos], sp.bad, sp.dead)
			}
		}

		// Merge the owners' sorted discoveries into the level's one list.
		discovered = discovered[:0]
		for {
			var best *worker
			for _, w := range ws {
				if w.head < len(w.pend) && (best == nil || w.pend[w.head].Order < best.pend[best.head].Order) {
					best = w
				}
			}
			if best == nil {
				break
			}
			discovered = append(discovered, best.pend[best.head])
			best.head++
		}
		var vio *violation
		for _, w := range ws {
			w.pend, w.head = w.pend[:0], 0
			if w.vio != nil && (vio == nil || w.vio.order < vio.order) {
				vio = w.vio
			}
		}
		vioOrder := ^uint64(0)
		if vio != nil {
			vioOrder = vio.order
		}
		trigger, capped, unsafeFirst := planLevel(discovered, states, limit, vioOrder, vio != nil)
		if unsafeFirst {
			return vio.err(n)
		}

		// Assign ids in first-encounter order; on the capped path only the
		// discoveries the sequential engine interned before its stop (the
		// rest keep global id -1: the run ends here).
		for _, d := range discovered {
			if d.Order >= trigger {
				break
			}
			intern(ws[d.Shard], int(d.Local))
		}

		// Count the arcs, on the capped path only the firings the sequential
		// scan examined strictly before the triggering one. Whole parents
		// come from the spans; the triggering parent's firings below the
		// trigger, and for a stored graph every firing (an edge needs its
		// target's id, which exists only now), are done over here. All of
		// them are safe: an unsafe one would have come first.
		whole := len(spans)
		switch {
		case graph:
			whole = 0
		case capped:
			whole = orderPos(trigger)
		}
		for _, sp := range spans[:whole] {
			res.Arcs += int(sp.n)
		}
		w0 := ws[0]
		for pos := whole; pos < len(views) && orderKey(pos, 0) <= trigger; pos++ {
			w0.en = n.AppendEnabled(w0.en[:0], views[pos])
			for _, t := range w0.en {
				if orderKey(pos, t) >= trigger {
					break
				}
				res.Arcs++
				if graph {
					n.FireInto(w0.next, views[pos], t)
					hash := w0.next.Hash()
					ow := ws[ownerOf[shardOf(hash)]]
					g.Edges[lo+pos] = append(g.Edges[lo+pos], Edge{T: t, To: int(ow.gid[ow.store.Lookup(w0.next, hash)])})
				}
			}
		}
		if capped {
			return ErrStateLimit
		}
		return nil
	}

	// finish fills the state count (and the stored graph's states) on
	// every return path that hands out a Result.
	finish := func(complete bool) {
		res.States = states
		res.Complete = complete
		if graph {
			g.States = markings()
		}
	}
	abort := func(err error) (*Result, error) {
		finish(false)
		tk.Abort(opts.Trace.Intern(err.Error()))
		return res, fmt.Errorf("reach: aborted: %w", err)
	}

	for len(views) > 0 {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return abort(opts.Ctx.Err())
		}
		// Level boundary: every state below the frontier is expanded and
		// the level is the contiguous id suffix about to be. The snapshot
		// must cover verdicts of ALL interned states the way the
		// sequential engine records them at discovery, so the frontier's
		// verdicts — which this engine only records when the states are
		// expanded as parents — are computed into the snapshot's copies
		// here without touching the live Result.
		if !resumed {
			if err := opts.Ckpt.At(states, int64(levels), func() *Snapshot {
				sn := snapshotAt(markings(), lo, res.Arcs, deadIDs, badIDs, levels)
				for pos, m := range views {
					if isBad(m) {
						sn.BadIDs = append(sn.BadIDs, lo+pos)
					}
					if n.IsDeadlock(m) {
						sn.DeadIDs = append(sn.DeadIDs, lo+pos)
					}
				}
				return sn
			}); err != nil {
				finish(false)
				return res, err
			}
		}
		batches++
		qPeak = max(qPeak, len(views))
		hBatch.Observe(int64(len(views)))

		nextLo := states
		var err error
		if nw := min(len(ws), 1+len(views)/levelWidth); nw == 1 {
			err = inline()
		} else {
			err = routed(nw)
		}
		switch {
		case err == nil:
		case errors.Is(err, ErrUnsafe):
			return nil, err
		case errors.Is(err, ErrStateLimit):
			// The fresh states interned before the cap were checked at
			// discovery by the sequential engine; reproduce that.
			for i, m := range next {
				record(nextLo+i, m, isBad(m), n.IsDeadlock(m))
			}
			finish(false)
			return res, ErrStateLimit
		default:
			// Cancelled mid-level: the states interned so far are a
			// partial Result, like the sequential engine's.
			return abort(err)
		}
		lo, views, next = nextLo, next, views[:0]
		levels++
		resumed = false
	}

	finish(true)
	tk.End(phExplore)
	return res, nil
}

// numShards is the granularity at which the visited store is
// partitioned: a power of two well above any sensible worker count.
const numShards = 256

// shardOf maps a marking hash (petri.Marking.Hash) onto a shard index.
func shardOf(hash uint64) uint32 {
	return uint32(hash) & (numShards - 1)
}

// shardRanges splits the shards into n ≤ numShards contiguous ownership
// ranges [lo, hi), owner i holding [i·256/n, (i+1)·256/n): sizes differ
// by at most one.
func shardRanges(n int) [][2]int {
	ranges := make([][2]int, n)
	for i := range ranges {
		ranges[i] = [2]int{i * numShards / n, (i + 1) * numShards / n}
	}
	return ranges
}

// orderKey is the deterministic merge key of one examined firing: the
// parent's position in the current BFS level in the high bits, the
// transition index in the low bits — exactly the order the sequential
// BFS scans firings.
func orderKey(pos int, t petri.Trans) uint64 {
	return uint64(pos)<<32 | uint64(uint32(t))
}

// orderPos is the parent position of an order key.
func orderPos(order uint64) int { return int(order >> 32) }

// discovery is a marking first reached during the current BFS level,
// claimed in a visited-store shard by the first worker to see it. Order
// is the minimal orderKey over all firings that reached it this level;
// Shard and Local say where the claimant stored the marking (the
// worker and its store id).
type discovery struct {
	Order uint64
	Shard uint32
	Local int32
}

// sortDiscoveries orders a level's discoveries by merge key — the order
// the sequential BFS first encounters them. Keys are unique within a
// level (each pending marking is claimed in exactly one shard), so the
// sort is total.
func sortDiscoveries(ds []discovery) {
	slices.SortFunc(ds, func(a, b discovery) int { return cmp.Compare(a.Order, b.Order) })
}

// planLevel establishes a level's stop point before anything from it is
// committed. Given the sorted discoveries, the states interned so far,
// the MaxStates cap (0 = none) and the minimal unsafe-firing order key
// (hasVio reports whether one exists), it returns:
//
//   - trigger: the order key at which the sequential scan stops
//     (^uint64(0) when the whole level commits);
//   - capped: the MaxStates cap cuts this level — discoveries with
//     Order >= trigger are not interned, and arcs are only counted for
//     examined orders < trigger;
//   - unsafeFirst: the unsafe firing comes first in scan order, so the
//     caller must fail with ErrUnsafe instead of committing anything.
//
// This reproduces the sequential engine exactly: it stops at whichever
// comes first in its scan order, an unsafe firing or the firing that
// would intern state MaxStates+1.
func planLevel(sorted []discovery, statesSoFar, maxStates int, vioOrder uint64, hasVio bool) (trigger uint64, capped, unsafeFirst bool) {
	trigger = ^uint64(0)
	if maxStates > 0 && statesSoFar+len(sorted) > maxStates {
		capped = true
		trigger = sorted[maxStates-statesSoFar].Order
	}
	if hasVio && vioOrder < trigger {
		return trigger, capped, true
	}
	return trigger, capped, false
}
