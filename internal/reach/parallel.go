package reach

// Owner-computes parallel frontier-batch exploration. A run with
// Workers ≥ 2 gets here from the sequential engine, which hands over its
// first level of levelWidth positions as a Snapshot (or from a resumed
// Snapshot). The 256 hash shards of shardOf are split into one contiguous
// range per worker, and every worker owns exactly one visited.Store that
// only it touches while workers run: there is no lock anywhere. A BFS
// level wide enough to share (levelWidth) is two barrier-separated phases:
//
//   - expand: workers pull chunks of level positions, fire every enabled
//     transition into a scratch marking and hash it; a successor the
//     worker owns is claimed in its store at once, for any other only the
//     firing's order key goes to the buffer this worker keeps for that
//     owner;
//   - absorb: every owner re-fires the keys addressed to it from the
//     level's parents into its store, min-combining order keys, and sorts
//     its own discoveries.
//
// Determinism is recovered at the level boundary: a new marking is
// pending under the minimal order key (parent position in the level,
// transition id) of the firings that reached it, and the owners' sorted
// discoveries are merged and given state ids in that order — exactly the
// order the sequential BFS first encounters them. A narrower level is
// scanned in that order by the calling goroutine alone, which interns a
// new marking on the spot in the store that owns it: no buffer, no merge.
// Either way States, Arcs, Deadlocks/BadStates order, and even the stop
// points of MaxStates and ErrUnsafe reproduce the Workers: 0 run bit for
// bit. The order key and the stop-point arithmetic close this file.
//
// A level's parents are its (owner, local id) list. A worker reads them
// through copies of the owners' stores taken while every store is
// quiescent (arena chunks never move), so nobody reads a store its owner
// is growing.

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
// worker: a run stays sequential until its first level of levelWidth
// positions, and from there a level of n positions runs on
// 1 + n/levelWidth workers (at most Options.Workers), so one narrower
// than levelWidth runs inline. Fixed from the crossover measurement in
// EXPERIMENTS.md; a variable only so the tests can force the handoff and
// the routed path on small nets.
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

	out    [][]uint64    // by owner: the order keys of the firings routed to it
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
		w.pend = append(grow(w.pend, 1), discovery{Order: order, Shard: w.id, Local: int32(local)})
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

// exploreParallel continues a run with Workers ≥ 2 from the level
// boundary sn describes: a Snapshot the sequential engine handed over at
// its first wide level, or the Options.Resume of a resumed run. Either
// way the boundary's Ckpt poll has been answered and the frontier's
// verdicts are recorded.
func exploreParallel(n *petri.Net, opts Options, r *run, sn *Snapshot) (*Result, error) {
	res := &Result{Complete: true}
	r.res = res // Explore exports it also when sn is refused
	if err := validateResume(n, sn); err != nil {
		return nil, err
	}
	res.Arcs = sn.Arcs
	isBad := func(m petri.Marking) bool { return opts.Bad != nil && opts.Bad(m) }

	// Owner o holds the shards sh with sh·len(ws)/numShards = o: one
	// contiguous range each, sizes within one of each other.
	ws := make([]*worker, min(opts.Workers, numShards))
	var ownerOf [numShards]uint8
	for sh := range ownerOf {
		ownerOf[sh] = uint8(sh * len(ws) / numShards)
	}
	// The merge loop writes the "reach" track and each worker its own
	// track, so ring writes stay single-goroutine (the phase barrier orders
	// a worker's level-k writes before whoever runs it at level k+1).
	for o := range ws {
		ws[o] = &worker{id: uint32(o), next: n.EmptyMarking(), cancel: stop.Every(opts.Ctx, 64),
			// Spare capacity keeps two workers' buffer headers, written
			// per routed firing, off one cache line.
			out: make([][]uint64, len(ws), len(ws)+8)}
		if opts.Trace != nil {
			ws[o].tk = opts.Trace.NewTrack(fmt.Sprintf("reach-w%d", o))
		}
	}

	// Per-level scratch, reused so steady-state exploration does not
	// reallocate with every batch. level lists the parents by position —
	// the ids [lo, lo+len(level)) — as owner and local id, and next
	// collects the level being discovered; stores are copies of the
	// owners' stores taken at the level's start, which the parents are
	// read from, and spans is what routed workers record per position.
	var (
		level, next []discovery
		stores      = make([]visited.Store, len(ws))
		spans       []span
		cursor      atomic.Int64
		expanders   int // workers expanding the routed level at hand
	)
	parent := func(pos int) petri.Marking {
		d := level[pos]
		return stores[d.Shard].At(int(d.Local))
	}
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
	// intern establishes an owner-local marking under the next global id.
	intern := func(w *worker, local int) {
		w.gid[local] = int32(states)
		opts.Progress.Add(1)
		r.tk.State(int64(states), 0)
		states++
	}
	limit := visited.Limit(opts.MaxStates)

	// levels counts fully expanded BFS levels: at the top of the loop the
	// ids from lo on are level number `levels`, exactly the boundary
	// coordinate of the sequential engine's snapshots. The verdict id
	// lists mirror res.Deadlocks/res.BadStates for checkpointing.
	restoreVerdicts(res, sn.States, sn)
	deadIDs := append([]int(nil), sn.DeadIDs...)
	badIDs := append([]int(nil), sn.BadIDs...)
	lo, levels := sn.FrontierStart, sn.Levels
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
	// A level's parents get their verdicts when they are expanded. The
	// first level's came with the snapshot, so they must not be recorded
	// again; its boundary poll was answered before sn was taken, so it is
	// skipped too.
	resumed := true

	for id, m := range sn.States {
		h := m.Hash()
		w := ws[ownerOf[shardOf(h)]]
		if w.store.Lookup(m, h) >= 0 {
			return nil, fmt.Errorf("reach: resume: duplicate marking at state %d", id)
		}
		w.gid = append(w.gid, int32(id))
		if local := w.store.Insert(m, h); id >= lo {
			level = append(level, discovery{Shard: w.id, Local: int32(local)})
		}
	}
	states = len(sn.States)
	if sn == opts.Resume { // a handed-over prefix was counted as it was found
		opts.Progress.Add(int64(states))
	}

	// inline expands a narrow level on the calling goroutine, as worker 0.
	// Positions are scanned in order, so first-encounter order is scan
	// order: a new marking is interned at once in the store that owns it,
	// and the scan stops where the sequential engine would.
	inline := func() error {
		me := ws[0]
		for pos := range level {
			if err := me.cancel.Poll(); err != nil {
				return err
			}
			m := parent(pos)
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
						for ; pos < len(level) && !resumed; pos++ {
							m := parent(pos)
							record(lo+pos, m, isBad(m), n.IsDeadlock(m))
						}
						return ErrStateLimit
					}
					local = ow.store.Insert(me.next, hash)
					ow.gid = append(grow(ow.gid, 1), 0)
					intern(ow, local)
					next = append(grow(next, 1), discovery{Shard: ow.id, Local: int32(local)})
				}
				res.Arcs++
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
		succ, en, out, cancel, wtk := me.next, me.en, me.out, me.cancel, me.tk
		for o := range out {
			out[o] = out[o][:0]
		}
		me.vio = nil
		for clo := 0; clo < len(level) && cancel.Poll() == nil; {
			clo = int(cursor.Add(chunk)) - chunk
			for pos := clo; pos < min(clo+chunk, len(level)); pos++ {
				m := parent(pos)
				fired := 0
				en = n.AppendEnabled(en[:0], m)
				for _, t := range en {
					order := orderKey(pos, t)
					if !n.FireInto(succ, m, t) {
						if me.vio == nil || order < me.vio.order {
							me.vio = &violation{order: order, t: t, m: m}
						}
						continue
					}
					fired++
					// One hash routes the owner and indexes its table; the
					// owner rebuilds a routed successor from its order key.
					hash := succ.Hash()
					if o := ownerOf[shardOf(hash)]; int(o) == wi {
						me.claim(succ, hash, order)
					} else {
						out[o] = append(grow(out[o], 1), order)
					}
					// The target's id is not known before the level merge,
					// whose state events carry the definitive ids.
					wtk.Fire(int64(t), -1)
				}
				spans[pos] = span{n: int32(fired), dead: len(en) == 0, bad: isBad(m)}
			}
		}
		me.en = en
	}
	// absorb is the second phase, for owner o: it re-fires the firings the
	// expanders routed to it — each a safe one whose successor hashes to
	// o — and sorts its pending markings into discovery order, by merge
	// key. Keys are unique within a level (each pending marking is claimed
	// by one owner), so the order is total.
	absorb := func(o int) {
		ow := ws[o]
		succ := ow.next
		for _, src := range ws[:expanders] {
			for _, order := range src.out[o] { // none from ow: it claimed its own
				n.FireInto(succ, parent(int(order>>32)), petri.Trans(uint32(order)))
				ow.claim(succ, succ.Hash(), order)
			}
		}
		slices.SortFunc(ow.pend, func(a, b discovery) int { return cmp.Compare(a.Order, b.Order) })
		ow.gid = grow(ow.gid, len(ow.pend))
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
	// and merges what they found into next.
	routed := func(nw int) error {
		spans = slices.Grow(spans[:0], len(level))[:len(level)]
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
				record(lo+pos, parent(pos), sp.bad, sp.dead)
			}
		}

		// Merge the owners' sorted discoveries into the level's one list.
		total := 0
		for _, w := range ws {
			total += len(w.pend)
		}
		next = slices.Grow(next[:0], total)
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
			next = append(next, best.pend[best.head])
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
		trigger, capped, unsafeFirst := planLevel(next, states, limit, vioOrder, vio != nil)
		if unsafeFirst {
			return vio.err(n)
		}

		// Assign ids in first-encounter order; on the capped path only to
		// the discoveries the sequential engine interned before its stop
		// (the rest keep global id -1: the run ends here).
		for i, d := range next {
			if d.Order >= trigger {
				next = next[:i]
				break
			}
			intern(ws[d.Shard], int(d.Local))
		}

		// Count the arcs: whole parents from the spans, and on the capped
		// path only the firings the sequential scan examined strictly
		// before the triggering one — those of the triggering parent below
		// it are counted over here. All of them are safe: an unsafe one
		// would have come first.
		if !capped {
			for _, sp := range spans {
				res.Arcs += int(sp.n)
			}
			return nil
		}
		pos := int(trigger >> 32) // the triggering parent
		for _, sp := range spans[:pos] {
			res.Arcs += int(sp.n)
		}
		w0 := ws[0]
		w0.en = n.AppendEnabled(w0.en[:0], parent(pos))
		for _, t := range w0.en {
			if orderKey(pos, t) >= trigger {
				break
			}
			res.Arcs++
		}
		return ErrStateLimit
	}

	// finish fills the state count on every return path that hands out a
	// Result.
	finish := func(complete bool) {
		res.States = states
		res.Complete = complete
	}
	abort := func(err error) (*Result, error) {
		finish(false)
		r.tk.Abort(opts.Trace.Intern(err.Error()))
		return res, fmt.Errorf("reach: aborted: %w", err)
	}

	for len(level) > 0 {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return abort(opts.Ctx.Err())
		}
		for o, w := range ws {
			stores[o] = w.store
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
				for pos := range level {
					m := parent(pos)
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
		r.batches++
		r.qPeak = max(r.qPeak, len(level))
		r.hBatch.Observe(int64(len(level)))

		nextLo := states
		next = next[:0]
		var err error
		if nw := min(len(ws), 1+len(level)/levelWidth); nw == 1 {
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
			for i, d := range next {
				m := ws[d.Shard].store.At(int(d.Local))
				record(nextLo+i, m, isBad(m), n.IsDeadlock(m))
			}
			finish(false)
			return res, ErrStateLimit
		default:
			// Cancelled mid-level: the states interned so far are a
			// partial Result, like the sequential engine's.
			return abort(err)
		}
		lo, level, next = nextLo, next, level
		levels++
		resumed = false
	}

	finish(true)
	return res, nil
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must grow: the routed-level buffers are refilled level
// after level, and append's 1.25× growth for large slices would copy them
// over and over.
func grow[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// numShards is the granularity at which the visited store is
// partitioned: a power of two well above any sensible worker count.
const numShards = 256

// shardOf maps a marking hash (petri.Marking.Hash) onto a shard index.
func shardOf(hash uint64) uint32 {
	return uint32(hash) & (numShards - 1)
}

// orderKey is the deterministic merge key of one examined firing: the
// parent's position in the current BFS level in the high bits, the
// transition index in the low bits — exactly the order the sequential
// BFS scans firings.
func orderKey(pos int, t petri.Trans) uint64 {
	return uint64(pos)<<32 | uint64(uint32(t))
}

// discovery is a marking first reached during the current BFS level,
// claimed in a visited-store shard by the first worker to see it. Order
// is the minimal orderKey over all firings that reached it this level;
// Shard and Local say where the claimant stored the marking (the
// worker and its store id). The merged list of a level's discoveries is
// the next level's parent list, which reads only Shard and Local.
type discovery struct {
	Order uint64
	Shard uint32
	Local int32
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
