package cluster

// Coordinator side of a distributed exploration. The node driving
// Explore holds the run's only visited store: the state table (id ->
// marking), into which every reachable marking is interned in the order
// the sequential BFS first meets it. Each level goes one of two ways:
//
//   - narrower than localWidth: the coordinator scans it alone and
//     interns every new marking on the spot, as reach's sequential engine
//     does — on such a level one round trip costs more than the scan;
//   - otherwise one expand RPC per peer. The level's positions are
//     bucketed by their parent's shard, each bucket goes to the shard's
//     owner, and whole buckets are stolen for peers below the watermark
//     (assignLevel) — placement moves work, never the merge order. A peer
//     fires every enabled transition of its positions and replies with
//     verdict flags, the examined order keys, the minimal unsafe firing,
//     and, in ascending order key, the successors it had not seen before.
//     The coordinator merges those lists on order key and interns the
//     first report of every unknown marking: the sequential scan order.
//     The merge stops where the sequential engine would, at the
//     MaxStates cap or at an unsafe firing that comes first.
//
// Why a peer may drop a successor it has seen is DESIGN.md D10. The
// Result is bit-identical to reach.Explore on the same net and options.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/reach"
	"repro/internal/visited"
)

// localWidth is the level width from which a level is sent to the peers;
// a narrower one is scanned by the coordinator alone. Fixed from the
// sweep in EXPERIMENTS.md "Cluster level protocol"; a variable only so
// that the tests can force either path.
var localWidth = 8192

// Explore runs one exhaustive reachability analysis across the
// cluster. bad lists the safety-predicate places (nil for deadlock-only
// runs) the peers check; it must agree with o.Bad, which the coordinator
// checks on the levels it scans itself and on the states of a capped
// level. Options the cluster cannot distribute (StoreGraph, early stops)
// fall back to the in-process engine, which is bit-identical anyway.
func (nd *Node) Explore(n *petri.Net, bad []petri.Place, o reach.Options) (*reach.Result, error) {
	if o.StoreGraph || o.StopAtDeadlock || o.StopAtBad || len(nd.peers) == 1 {
		return reach.Explore(n, o)
	}
	defer o.Metrics.StartSpan("cluster.explore").End()

	var netText strings.Builder
	if err := pnio.Write(&netText, n); err != nil {
		return nil, fmt.Errorf("cluster: cannot serialize net: %w", err)
	}
	badNames := make([]string, len(bad))
	for i, p := range bad {
		badNames[i] = n.PlaceName(p)
	}

	nd.mu.Lock()
	nd.seq++
	jobID := fmt.Sprintf("j-%d-%d-%d", nd.self, time.Now().UnixNano(), nd.seq)
	nd.mu.Unlock()

	// Trace context: the content-addressed run ID (stamped into the
	// tracer's meta by the server) rides on startReq so every peer's
	// recorder shares the run's identity; the coordinator additionally
	// stamps its wall-clock base so merged timelines can align dumps.
	runID := ""
	if o.Trace != nil {
		runID = o.Trace.Meta()["run_id"]
		if runID == "" {
			runID = jobID
		}
		o.Trace.SetMeta("role", "coordinator")
		o.Trace.SetMeta("coordinator", nd.Self())
		o.Trace.SetMeta("base_unix_ns", strconv.FormatInt(o.Trace.Base().UnixNano(), 10))
	}

	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := nd.broadcast(func(peer int) error {
		return nd.PostJSON(ctx, peer, "/cluster/v1/start", startReq{Job: jobID, Net: netText.String(), Bad: badNames, TraceRun: runID}, nil)
	}); err != nil {
		return nil, fmt.Errorf("cluster: start broadcast: %w", err)
	}
	defer nd.broadcast(func(peer int) error {
		return nd.PostJSON(context.Background(), peer, "/cluster/v1/finish", finishReq{Job: jobID}, nil)
	})

	res := &reach.Result{Complete: true}
	var (
		qPeak       int
		levels      int64
		localLevels int64
		steals      int64
		bytesOut    int64
		bytesIn     int64
	)
	if o.Metrics != nil {
		defer func() {
			reg := o.Metrics
			reach.ExportMetrics(reg, res, qPeak)
			reg.Counter("cluster.levels").Add(levels)
			reg.Counter("cluster.local_levels").Add(localLevels)
			reg.Counter("cluster.steals").Add(steals)
			reg.Counter("cluster.frontier_bytes_out").Add(bytesOut)
			reg.Counter("cluster.frontier_bytes_in").Add(bytesIn)
			reg.Gauge("cluster.peers").Set(int64(len(nd.peers)))
		}()
	}
	tk := o.Trace.NewTrack("cluster")
	phExplore := o.Trace.Intern("explore")
	phAssign := o.Trace.Intern("assign")
	phExpand := o.Trace.Intern("expand")
	phSerialize := o.Trace.Intern("serialize")
	phWait := o.Trace.Intern("expand_wait")
	phMerge := o.Trace.Intern("merge")
	tk.Begin(phExplore)
	// One wire lane per peer: each broadcast goroutine records its own
	// serialize spans and frame edges, so the single-writer contract of
	// Track holds.
	wire := make([]*trace.Track, len(nd.peers))
	if o.Trace != nil {
		for i := range wire {
			wire[i] = o.Trace.NewTrack("wire:" + nd.peers[i])
		}
	}

	// The authoritative state table: id -> marking, and each state's
	// shard for the level assignment.
	var states visited.Store
	var stateShard []uint32
	intern := func(m petri.Marking, hash uint64) int {
		id := states.Insert(m, hash)
		stateShard = append(stateShard, reach.ShardOf(hash))
		o.Progress.Tick(1)
		tk.State(int64(id), 0)
		return id
	}
	m0 := n.InitialMarking()
	intern(m0, m0.Hash())
	limit := visited.Limit(o.MaxStates)
	nt := petri.Trans(n.NumTrans())

	isBad := func(m petri.Marking) bool { return o.Bad != nil && o.Bad(m) }
	record := func(m petri.Marking, bad, dead bool) {
		if bad {
			res.BadFound = true
			res.BadStates = append(res.BadStates, m)
		}
		if dead {
			res.Deadlock = true
			res.Deadlocks = append(res.Deadlocks, m)
		}
	}
	// check records the verdicts of states the sequential engine checked
	// on discovering them but this run never expands: the rest of a
	// capped level and what it interned.
	check := func(ids []int) {
		for _, id := range ids {
			m := states.At(id)
			record(m, isBad(m), n.IsDeadlock(m))
		}
	}
	unsafe := func(t petri.Trans, m petri.Marking) error {
		return fmt.Errorf("%w: firing %s from %s double-marks a place", reach.ErrUnsafe, n.TransName(t), m.String(n))
	}

	// scan expands a narrow level on the coordinator in scan order, so
	// first encounter is scan order and a new marking is interned at once.
	scratch := n.EmptyMarking()
	var en []petri.Trans
	scan := func(level []int) ([]int, error) {
		var next []int
		for pos, id := range level {
			m := states.At(id)
			en = n.AppendEnabled(en[:0], m)
			for _, t := range en {
				if !n.FireInto(scratch, m, t) {
					return nil, unsafe(t, m)
				}
				if hash := scratch.Hash(); states.Lookup(scratch, hash) < 0 {
					if states.Len() >= limit {
						check(level[pos:])
						check(next)
						return nil, reach.ErrStateLimit
					}
					next = append(next, intern(scratch, hash))
				}
				res.Arcs++
			}
			record(m, isBad(m), len(en) == 0)
		}
		return next, nil
	}

	// distribute sends a wide level to the peers, one expand RPC each,
	// and merges their replies.
	distribute := func(lvl int64, level []int) ([]int, error) {
		tk.Emit(trace.KindPhaseBegin, phAssign, lvl)
		assign, nSteals := nd.assignLevel(level, stateShard, tk, lvl)
		tk.Emit(trace.KindPhaseEnd, phAssign, lvl)
		steals += nSteals
		expander := make([]int32, len(level))
		for peer, positions := range assign {
			for _, pos := range positions {
				expander[pos] = int32(peer)
			}
		}

		replies := make([]*expandReply, len(nd.peers))
		news := make([]*batch, len(nd.peers)) // vals are order keys
		tk.Emit(trace.KindPhaseBegin, phWait, lvl)
		err := nd.broadcast(func(peer int) error {
			positions := assign[peer]
			if len(positions) == 0 {
				return nil
			}
			wt := wire[peer]
			wt.Emit(trace.KindPhaseBegin, phSerialize, lvl)
			var parents batch // vals are level positions
			for _, pos := range positions {
				parents.add(states.At(level[pos]), uint64(pos))
			}
			buf := parents.body(frameExpand)
			wt.Emit(trace.KindPhaseEnd, phSerialize, lvl)
			nd.addBytes(&bytesOut, int64(buf.Len()))
			pid := trace.PairID(lvl, trace.RPCExpand, nd.self, peer)
			wt.FrameSend(pid, int64(buf.Len()))
			resp, cancel, err := nd.post(ctx, peer, "/cluster/v1/expand", jobID, pid, buf, "application/octet-stream")
			if err != nil {
				return err
			}
			defer cancel()
			defer resp.Body.Close()
			cr := &countingReader{r: resp.Body}
			re, list, err := decodeExpandBody(cr, n.Words())
			if err != nil {
				return err
			}
			nd.addBytes(&bytesIn, cr.n)
			wt.FrameRecv(pid, cr.n)
			expands := func(order uint64) bool {
				pos := reach.OrderPos(order)
				return pos < len(level) && expander[pos] == int32(peer) && reach.OrderTrans(order) < nt
			}
			if err := checkReply(re, list, len(positions), expands); err != nil {
				return fmt.Errorf("%s: %w", nd.peers[peer], err)
			}
			replies[peer], news[peer] = re, list
			return nil
		})
		tk.Emit(trace.KindPhaseEnd, phWait, lvl)
		if err != nil {
			return nil, fmt.Errorf("cluster: expand: %w", err)
		}

		// Verdict flags back into position order, and the scan-order-first
		// unsafe firing across peers (^0: none).
		flags := make([]byte, len(level))
		vioOrder := ^uint64(0)
		for peer, re := range replies {
			if re == nil {
				continue
			}
			for i, pos := range assign[peer] {
				flags[pos] = re.flags[i]
			}
			if re.hasVio {
				vioOrder = min(vioOrder, re.vioOrder)
			}
		}
		for pos, id := range level {
			record(states.At(id), flags[pos]&flagBad != 0, flags[pos]&flagDead != 0)
		}

		// k-way merge on order key. trigger is the order of the firing
		// that would intern state MaxStates+1 (^0: the cap is not reached).
		tk.Emit(trace.KindPhaseBegin, phMerge, lvl)
		var next []int
		trigger := ^uint64(0)
		heads := make([]int, len(news))
		for {
			best := -1
			for p, list := range news {
				if list != nil && heads[p] < list.len() && (best < 0 || list.vals[heads[p]] < news[best].vals[heads[best]]) {
					best = p
				}
			}
			if best < 0 {
				break
			}
			order, m := news[best].vals[heads[best]], news[best].marking(heads[best])
			heads[best]++
			if order > vioOrder {
				break
			}
			hash := m.Hash()
			if states.Lookup(m, hash) >= 0 {
				continue
			}
			if states.Len() >= limit {
				trigger = order
				break
			}
			next = append(next, intern(m, hash))
		}
		tk.Emit(trace.KindPhaseEnd, phMerge, lvl)
		if vioOrder < trigger {
			return nil, unsafe(reach.OrderTrans(vioOrder), states.At(level[reach.OrderPos(vioOrder)]))
		}

		// Count arcs from the examined orders; on a capped level only the
		// firings the sequential scan reached before the trigger.
		for _, re := range replies {
			if re == nil {
				continue
			}
			for _, ord := range re.orders {
				if ord < trigger {
					res.Arcs++
				}
			}
		}
		if trigger != ^uint64(0) {
			check(next)
			return nil, reach.ErrStateLimit
		}
		return next, nil
	}

	abort := func() (*reach.Result, error) {
		res.States = states.Len()
		res.Complete = false
		tk.Abort(o.Trace.Intern(ctx.Err().Error()))
		return res, fmt.Errorf("reach: aborted: %w", ctx.Err())
	}

	level := []int{0}
	for len(level) > 0 {
		if ctx.Err() != nil {
			return abort()
		}
		lvl := levels
		levels++
		qPeak = max(qPeak, len(level))
		tk.Level(lvl, int64(len(level)))

		var next []int
		var err error
		if len(level) < localWidth {
			localLevels++
			tk.Emit(trace.KindPhaseBegin, phExpand, lvl)
			next, err = scan(level)
			tk.Emit(trace.KindPhaseEnd, phExpand, lvl)
			tk.Expanded(int64(len(level)), lvl)
		} else {
			next, err = distribute(lvl, level)
		}
		switch {
		case errors.Is(err, reach.ErrStateLimit):
			res.States = states.Len()
			res.Complete = false
			return res, err
		case err != nil && ctx.Err() != nil:
			return abort()
		case err != nil:
			return nil, err
		}
		level = next
	}

	res.States = states.Len()
	tk.End(phExplore)
	return res, nil
}

// checkReply refuses an expand reply that does not fit the batch its
// peer was sent: it must carry one flag per position, and every report
// and the violation must name a firing the peer expanded (expands), the
// reports in strictly ascending order.
func checkReply(re *expandReply, news *batch, positions int, expands func(order uint64) bool) error {
	if len(re.flags) != positions {
		return fmt.Errorf("%w: expand reply flag count %d != batch size %d", codec.ErrMalformed, len(re.flags), positions)
	}
	if re.hasVio && !expands(re.vioOrder) {
		return fmt.Errorf("%w: expand reply violation %#x names no firing of the batch", codec.ErrMalformed, re.vioOrder)
	}
	for i, order := range news.vals {
		if !expands(order) || i > 0 && order <= news.vals[i-1] {
			return fmt.Errorf("%w: expand reply report %d (order %#x) is out of order or names no firing of the batch", codec.ErrMalformed, i, order)
		}
	}
	return nil
}

// assignLevel buckets the level's positions by parent shard, assigns
// each bucket to the shard's owner, then steals whole buckets from the
// most-loaded peer for any peer under the watermark
// max(1, len(level)/(4*peers)). Returns each peer's positions in
// ascending order, which the peers' seen filter relies on, and the steal
// count. Each steal is stamped on tk (nil for untraced runs) with the
// positions moved.
func (nd *Node) assignLevel(level []int, stateShard []uint32, tk *trace.Track, lvl int64) ([][]int, int64) {
	nPeers := len(nd.peers)
	var sizes [reach.NumShards]int
	for _, id := range level {
		sizes[stateShard[id]]++
	}
	var bucketOwner [reach.NumShards]int
	loads := make([]int, nPeers)
	for sh, size := range sizes {
		bucketOwner[sh] = nd.owners[sh]
		loads[nd.owners[sh]] += size
	}

	watermark := len(level) / (4 * nPeers)
	if watermark < 1 {
		watermark = 1
	}
	var steals int64
	for iter := 0; iter < reach.NumShards; iter++ {
		starving, donor := -1, -1
		for p := 0; p < nPeers; p++ {
			if loads[p] < watermark && (starving < 0 || loads[p] < loads[starving]) {
				starving = p
			}
			if donor < 0 || loads[p] > loads[donor] {
				donor = p
			}
		}
		if starving < 0 || donor == starving {
			break
		}
		// Move the donor's largest bucket, but only if the donor stays
		// at least as loaded as the recipient becomes — otherwise a
		// single bucket would ping-pong between starving peers.
		best, bestSz := -1, 0
		for sh, size := range sizes {
			if bucketOwner[sh] == donor && size > bestSz {
				best, bestSz = sh, size
			}
		}
		if best < 0 || loads[donor]-bestSz < loads[starving]+bestSz {
			break
		}
		bucketOwner[best] = starving
		loads[donor] -= bestSz
		loads[starving] += bestSz
		steals++
		tk.Steal(lvl, int64(bestSz))
	}

	assign := make([][]int, nPeers)
	for pos, id := range level {
		p := bucketOwner[stateShard[id]]
		assign[p] = append(assign[p], pos)
	}
	return assign, steals
}

// broadcast runs fn for every peer concurrently, returning the first
// error.
func (nd *Node) broadcast(fn func(peer int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(nd.peers))
	for peer := range nd.peers {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			errs[peer] = fn(peer)
		}(peer)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// addBytes serializes byte-counter updates from broadcast goroutines.
func (nd *Node) addBytes(dst *int64, n int64) {
	nd.mu.Lock()
	*dst += n
	nd.mu.Unlock()
}
