package reach

// Parallel frontier-batch exploration. Each BFS level is a batch of
// already-interned states fanned out to a pool of workers; successor
// generation is pure (petri.FireInto a per-worker scratch marking), so the
// only shared mutable structure is the visited store, which is split into
// hash-indexed shards — one visited.Store and one mutex each — so
// interning does not serialize.
//
// Determinism is recovered at the level boundary: workers record every
// firing they examine under the order key (parent position in the level,
// transition id), first-claim newly seen markings in the shards as pending
// discoveries, and min-combine order keys when several workers reach the
// same new marking. After the level's barrier the discoveries are sorted
// by order key and assigned state ids — exactly the order the sequential
// BFS first encounters them — so States, Arcs, Deadlocks/BadStates order,
// the stored Graph, and even the stop points of MaxStates and ErrUnsafe
// reproduce the Workers: 0 run bit for bit. The order-key sort and the
// stop-point arithmetic live in merge.go, shared with the distributed
// cluster explorer (internal/cluster).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/visited"
)

// numShards aliases the exported constant; see merge.go.
const numShards = NumShards

// shard is one slice of the visited store. Markings are interned in the
// shard's store the moment a worker first reaches them; gid maps the
// store's local ids to global state ids and covers only the markings
// established by earlier level merges. Local ids from len(gid) on are
// this level's pending discoveries, and pend[local-len(gid)] is the
// minimal order key over the firings that reached each so far.
type shard struct {
	mu    sync.Mutex
	store visited.Store
	gid   []int32
	pend  []uint64
	_     [48]byte // pad to three 64-byte cache lines so shards don't false-share
}

// succRef is one examined firing: transition t led to the marking with
// the given local id in the given shard. Whether the target was already
// established or is pending, its global id is shards[shard].gid[local]
// once the level is merged.
type succRef struct {
	t     petri.Trans
	local int32
	shard uint8
}

// span is what a worker records per expanded level position: where the
// position's firings lie in the worker's flat succRef list, and the
// parent's verdicts.
type span struct {
	worker, off, n int32
	dead, bad      bool
}

// violation records an unsafe firing so the merge can report the
// scan-order-first one with the same error as the sequential engine.
type violation struct {
	order uint64
	t     petri.Trans
	m     petri.Marking
}

// exploreParallel is the Workers > 0 path of Explore. Early-stop options
// are routed to the sequential engine before this is called.
func exploreParallel(n *petri.Net, opts Options) (*Result, error) {
	defer opts.Metrics.StartSpan("reach.explore").End()
	res := &Result{Complete: true}
	var (
		qPeak      int
		batches    int64
		contention int64
	)
	hBatch := opts.Metrics.Histogram("reach.batch_sizes")
	if opts.Metrics != nil {
		// Same export-once-on-exit discipline as the sequential engine,
		// plus the parallel-only worker/batch/shard metrics.
		defer func() {
			reg := opts.Metrics
			ExportMetrics(reg, res, qPeak)
			reg.Gauge("reach.workers").Set(int64(opts.Workers))
			reg.Gauge("reach.shards").Set(numShards)
			reg.Counter("reach.batches").Add(batches)
			reg.Counter("reach.shard_contention").Add(contention)
		}()
	}
	// The merge loop owns the "reach" track; each worker index owns its
	// own lane, so ring writes stay single-goroutine (the WaitGroup
	// barrier orders a worker's level-k writes before its level-k+1
	// goroutine reuses the track).
	tk := opts.Trace.NewTrack("reach")
	phExplore := opts.Trace.Intern("explore")
	tk.Begin(phExplore)
	wtks := make([]*trace.Track, opts.Workers) // nil tracks when not tracing
	if opts.Trace != nil {
		for wi := range wtks {
			wtks[wi] = opts.Trace.NewTrack(fmt.Sprintf("reach-w%d", wi))
		}
	}
	var g *Graph
	if opts.StoreGraph {
		g = &Graph{Net: n}
		res.Graph = g
	}

	shards := make([]shard, numShards)
	var states []petri.Marking // global id -> arena view in the owning shard
	// intern establishes a shard-local marking under the next global id;
	// workers are quiesced whenever it runs.
	intern := func(s *shard, local int) int {
		id := len(states)
		s.gid[local] = int32(id)
		states = append(states, s.store.At(local))
		if opts.StoreGraph {
			g.Edges = append(g.Edges, nil)
		}
		return id
	}
	limit := visited.Limit(opts.MaxStates)

	var level []int
	// levels counts fully expanded BFS levels: at the top of the loop,
	// `level` holds level number `levels`, exactly the boundary
	// coordinate of the sequential engine's snapshots. The verdict id
	// lists mirror res.Deadlocks/res.BadStates for checkpointing.
	levels := 0
	var deadIDs, badIDs []int
	record := func(id int, bad, dead bool) {
		if bad {
			res.BadFound = true
			res.BadStates = append(res.BadStates, states[id])
			badIDs = append(badIDs, id)
		}
		if dead {
			res.Deadlock = true
			res.Deadlocks = append(res.Deadlocks, states[id])
			deadIDs = append(deadIDs, id)
		}
	}
	// On resume the frontier's verdicts were restored from the snapshot,
	// so the first level's parent-verdict pass must not re-record them;
	// the resume point itself is the boundary the checkpoint was taken
	// at, so its poll is skipped too.
	skipParentVerdicts := false
	resumedBoundary := false

	first := []petri.Marking{n.InitialMarking()}
	if sn := opts.Resume; sn != nil {
		if err := validateResume(n, sn); err != nil {
			return nil, err
		}
		first = sn.States
	}
	for id, m := range first {
		h := m.Hash()
		s := &shards[ShardOf(h)]
		if s.store.Lookup(m, h) >= 0 {
			return nil, fmt.Errorf("reach: resume: duplicate marking at state %d", id)
		}
		s.gid = append(s.gid, 0)
		intern(s, s.store.Insert(m, h))
	}
	opts.Progress.Tick(int64(len(states)))
	if sn := opts.Resume; sn == nil {
		tk.State(0, 0)
		level = []int{0}
	} else {
		res.Arcs = sn.Arcs
		restoreVerdicts(res, states, sn)
		deadIDs = append(deadIDs, sn.DeadIDs...)
		badIDs = append(badIDs, sn.BadIDs...)
		level = make([]int, 0, len(states)-sn.FrontierStart)
		for id := sn.FrontierStart; id < len(states); id++ {
			level = append(level, id)
		}
		levels = sn.Levels
		skipParentVerdicts = true
		resumedBoundary = true
	}

	nt := petri.Trans(n.NumTrans())

	// Per-level scratch, reused so steady-state exploration does not
	// reallocate with every batch: one span per level position, one flat
	// firing list and one scratch marking per worker, and the level's
	// discoveries.
	var (
		spans      []span
		discovered []Discovery
	)
	workerSuccs := make([][]succRef, opts.Workers)
	workerScratch := make([]petri.Marking, opts.Workers)
	for wi := range workerScratch {
		workerScratch[wi] = n.EmptyMarking()
	}

	// finish fills the state count (and the stored graph's states) on
	// every return path that hands out a Result.
	finish := func(complete bool) {
		res.States = len(states)
		res.Complete = complete
		if opts.StoreGraph {
			g.States = states
		}
	}
	abort := func() (*Result, error) {
		finish(false)
		tk.Abort(opts.Trace.Intern(opts.Ctx.Err().Error()))
		return res, fmt.Errorf("reach: aborted: %w", opts.Ctx.Err())
	}

	for len(level) > 0 {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return abort()
		}
		// Level boundary: every state below the frontier is expanded and
		// `level` is the contiguous id suffix about to be. The snapshot
		// must cover verdicts of ALL interned states the way the
		// sequential engine records them at discovery, so the frontier's
		// verdicts — which this engine only records when the states are
		// expanded as parents — are computed into the snapshot's copies
		// here without touching the live Result.
		if !resumedBoundary {
			if act := opts.Ckpt.poll(len(states), levels); act != CkptNone {
				sn := snapshotAt(append([]petri.Marking(nil), states...), len(states)-len(level), res.Arcs, deadIDs, badIDs, levels)
				for _, id := range level {
					m := states[id]
					if opts.Bad != nil && opts.Bad(m) {
						sn.BadIDs = append(sn.BadIDs, id)
					}
					if n.IsDeadlock(m) {
						sn.DeadIDs = append(sn.DeadIDs, id)
					}
				}
				if opts.Ckpt.Save != nil {
					if err := opts.Ckpt.Save(sn); err != nil {
						return nil, fmt.Errorf("reach: checkpoint save: %w", err)
					}
				}
				if act == CkptStop {
					finish(false)
					return res, ErrCheckpointStop
				}
			}
		}
		resumedBoundary = false
		batches++
		if len(level) > qPeak {
			qPeak = len(level)
		}
		hBatch.Observe(int64(len(level)))

		if cap(spans) < len(level) {
			spans = make([]span, len(level))
		}
		spans = spans[:len(level)]

		w := min(opts.Workers, len(level))
		workerViols := make([]*violation, w)
		workerCont := make([]int64, w)

		var cursor atomic.Int64
		var wg sync.WaitGroup
		const chunk = 16
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				wt := wtks[wi]
				next := workerScratch[wi]
				succs := workerSuccs[wi][:0]
				var vio *violation
				var cont int64
				for {
					// One context check per chunk bounds the abort latency
					// of a worker to 16 states without a per-state Err call.
					if opts.Ctx != nil && opts.Ctx.Err() != nil {
						break
					}
					lo := int(cursor.Add(chunk)) - chunk
					if lo >= len(level) {
						break
					}
					hi := min(lo+chunk, len(level))
					for pos := lo; pos < hi; pos++ {
						m := states[level[pos]]
						enabled := 0
						off := len(succs)
						for t := petri.Trans(0); t < nt; t++ {
							if !n.Enabled(m, t) {
								continue
							}
							enabled++
							order := OrderKey(pos, t)
							if !n.FireInto(next, m, t) {
								if vio == nil || order < vio.order {
									vio = &violation{order: order, t: t, m: m}
								}
								continue
							}
							// One hash routes the shard (and, in the cluster
							// explorer, the owning peer) and indexes the
							// shard's table.
							hash := next.Hash()
							sh := ShardOf(hash)
							s := &shards[sh]
							if !s.mu.TryLock() {
								cont++
								s.mu.Lock()
							}
							// Target id for the trace is -1 for markings still
							// pending the level merge; the merge's state events
							// carry the definitive ids.
							id := int64(-1)
							local := s.store.Lookup(next, hash)
							if local < 0 {
								local = s.store.Insert(next, hash)
								s.pend = append(s.pend, order)
							} else if p := local - len(s.gid); p < 0 {
								id = int64(s.gid[local])
							} else if order < s.pend[p] {
								s.pend[p] = order
							}
							s.mu.Unlock()
							succs = append(succs, succRef{t: t, local: int32(local), shard: uint8(sh)})
							wt.Fire(int64(t), id)
						}
						spans[pos] = span{
							worker: int32(wi), off: int32(off), n: int32(len(succs) - off),
							dead: enabled == 0, bad: opts.Bad != nil && opts.Bad(m),
						}
					}
				}
				workerSuccs[wi] = succs
				workerViols[wi] = vio
				workerCont[wi] = cont
			}(wi)
		}
		wg.Wait()
		for _, c := range workerCont {
			contention += c
		}
		// A cancelled context makes workers bail mid-level, leaving the
		// per-position scratch only partially filled; merging it would
		// fabricate verdicts, so abort with the states of completed levels.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return abort()
		}

		// Verdicts of this level's parents. They were interned (and in the
		// sequential engine, checked) in id order before any state of the
		// next level, so appending here preserves the global id order of
		// the Deadlocks and BadStates lists. On the first level after a
		// resume the verdicts were already restored from the snapshot.
		if skipParentVerdicts {
			skipParentVerdicts = false
		} else {
			for pos, id := range level {
				record(id, spans[pos].bad, spans[pos].dead)
			}
		}

		// Gather the shards' pending discoveries and make room for their
		// global ids.
		discovered = discovered[:0]
		for si := range shards {
			s := &shards[si]
			for p, order := range s.pend {
				discovered = append(discovered, Discovery{Order: order, Shard: uint32(si), Local: int32(len(s.gid) + p)})
			}
			s.gid = append(s.gid, make([]int32, len(s.pend))...)
			s.pend = s.pend[:0]
		}
		SortDiscoveries(discovered)

		var vio *violation
		for _, v := range workerViols {
			if v != nil && (vio == nil || v.order < vio.order) {
				vio = v
			}
		}
		vioOrder := ^uint64(0)
		if vio != nil {
			vioOrder = vio.order
		}
		trigger, capped, unsafeFirst := PlanLevel(discovered, len(states), limit, vioOrder, vio != nil)
		if unsafeFirst {
			return nil, fmt.Errorf("%w: firing %s from %s double-marks a place",
				ErrUnsafe, n.TransName(vio.t), vio.m.String(n))
		}

		// Assign ids in first-encounter order; on the capped path only the
		// discoveries the sequential engine interned before its stop (the
		// rest keep global id 0, which nothing reads: the run ends here).
		nextLevel := make([]int, 0, len(discovered))
		for _, d := range discovered {
			if d.Order >= trigger {
				break
			}
			id := intern(&shards[d.Shard], int(d.Local))
			opts.Progress.Tick(1)
			tk.State(int64(id), 0)
			nextLevel = append(nextLevel, id)
		}

		// Count arcs and store edges; on the capped path only firings the
		// sequential scan examined strictly before the triggering one.
		for pos, sp := range spans {
			if !capped && !opts.StoreGraph {
				res.Arcs += int(sp.n)
				continue
			}
			for _, sr := range workerSuccs[sp.worker][sp.off : sp.off+sp.n] {
				if capped && OrderKey(pos, sr.t) >= trigger {
					break // orders grow with t within a parent
				}
				res.Arcs++
				if opts.StoreGraph {
					to := int(shards[sr.shard].gid[sr.local])
					g.Edges[level[pos]] = append(g.Edges[level[pos]], Edge{T: sr.t, To: to})
				}
			}
		}

		if capped {
			// The fresh states interned above were checked at discovery by
			// the sequential engine before it hit the cap; reproduce that.
			for _, id := range nextLevel {
				m := states[id]
				record(id, opts.Bad != nil && opts.Bad(m), n.IsDeadlock(m))
			}
			finish(false)
			return res, ErrStateLimit
		}

		level = nextLevel
		levels++
	}

	finish(true)
	tk.End(phExplore)
	return res, nil
}
