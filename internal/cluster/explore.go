package cluster

// Coordinator side of a distributed exploration. The node driving
// Explore owns the authoritative state table (id -> marking) and the
// level loop; peers own the visited store, partitioned at the same
// 256-shard boundary the in-process parallel explorer uses. Each level:
//
//  1. assign: group the level's positions by their parent state's
//     shard, give each bucket to the shard's owner, then rebalance by
//     stealing whole buckets from the most-loaded peer for any peer
//     below the watermark — assignment moves work, never ownership, and
//     order keys carry the global level position, so stealing cannot
//     perturb the merge order;
//  2. expand: peers fire every enabled transition of their slice,
//     route fresh successors to owning peers as intern batches, and
//     reply with verdict flags, examined order keys, and the minimal
//     unsafe firing;
//  3. collect: owners return their pending discoveries;
//  4. merge: reach.SortDiscoveries + reach.PlanLevel — the exact hooks
//     of the in-process explorer — fix the level's stop point, then ids
//     are assigned in first-encounter order and committed back.
//
// The Result is therefore bit-identical to reach.Explore on the same
// net and options.

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/reach"
	"repro/internal/visited"
)

// Explore runs one exhaustive reachability analysis across the
// cluster. bad lists the safety-predicate places (nil for deadlock-only
// runs); it must agree with o.Bad, which the coordinator still uses for
// the capped path's fresh-state checks. Options the cluster cannot
// distribute (StoreGraph, early stops) fall back to the in-process
// engine, which is bit-identical anyway.
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
		return nd.postJSON(ctx, peer, "/cluster/v1/start", startReq{Job: jobID, Net: netText.String(), Bad: badNames, TraceRun: runID})
	}); err != nil {
		return nil, fmt.Errorf("cluster: start broadcast: %w", err)
	}
	defer nd.broadcast(func(peer int) error {
		return nd.postJSON(context.Background(), peer, "/cluster/v1/finish", finishReq{Job: jobID})
	})

	res := &reach.Result{Complete: true}
	var (
		qPeak    int
		levels   int64
		steals   int64
		bytesOut int64
		bytesIn  int64
	)
	if o.Metrics != nil {
		defer func() {
			reg := o.Metrics
			reach.ExportMetrics(reg, res, qPeak)
			reg.Counter("cluster.levels").Add(levels)
			reg.Counter("cluster.steals").Add(steals)
			reg.Counter("cluster.frontier_bytes_out").Add(bytesOut)
			reg.Counter("cluster.frontier_bytes_in").Add(bytesIn)
			reg.Gauge("cluster.peers").Set(int64(len(nd.peers)))
		}()
	}
	tk := o.Trace.NewTrack("cluster")
	phExplore := o.Trace.Intern("explore")
	phAssign := o.Trace.Intern("assign")
	phSerialize := o.Trace.Intern("serialize")
	phWait := o.Trace.Intern("expand_wait")
	phMerge := o.Trace.Intern("merge")
	tk.Begin(phExplore)
	// One wire lane per peer: each broadcast goroutine records its own
	// serialize spans and frame edges, so the single-writer contract of
	// Track holds (phases within a level are sequential per peer).
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

	level := []int{0}

	abort := func() (*reach.Result, error) {
		res.States = states.Len()
		res.Complete = false
		tk.Abort(o.Trace.Intern(ctx.Err().Error()))
		return res, fmt.Errorf("reach: aborted: %w", ctx.Err())
	}

	for len(level) > 0 {
		if ctx.Err() != nil {
			return abort()
		}
		lvl := levels
		levels++
		if len(level) > qPeak {
			qPeak = len(level)
		}
		tk.Level(lvl, int64(len(level)))

		// Assign: bucket positions by parent shard, owner first, then
		// steal whole buckets for starving peers.
		tk.Emit(trace.KindPhaseBegin, phAssign, lvl)
		assign, nSteals := nd.assignLevel(level, stateShard, tk, lvl)
		tk.Emit(trace.KindPhaseEnd, phAssign, lvl)
		steals += nSteals

		// Expand all peers in parallel.
		type peerBatch struct {
			entries batch // vals are level positions
			reply   *expandReply
		}
		batches := make([]*peerBatch, len(nd.peers))
		for peer, positions := range assign {
			if len(positions) == 0 {
				continue
			}
			pb := &peerBatch{}
			for _, pos := range positions {
				pb.entries.add(states.At(level[pos]), uint64(pos))
			}
			batches[peer] = pb
		}
		tk.Emit(trace.KindPhaseBegin, phWait, lvl)
		err := nd.broadcast(func(peer int) error {
			pb := batches[peer]
			if pb == nil {
				return nil
			}
			wt := wire[peer]
			wt.Emit(trace.KindPhaseBegin, phSerialize, lvl)
			buf := pb.entries.body(frameExpand)
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
			re, err := decodeExpandReply(cr)
			if err != nil {
				return err
			}
			nd.addBytes(&bytesIn, cr.n)
			wt.FrameRecv(pid, cr.n)
			if len(re.flags) != pb.entries.len() {
				return fmt.Errorf("expand reply flag count %d != batch size %d", len(re.flags), pb.entries.len())
			}
			pb.reply = re
			return nil
		})
		tk.Emit(trace.KindPhaseEnd, phWait, lvl)
		if err != nil {
			if ctx.Err() != nil {
				return abort()
			}
			return nil, fmt.Errorf("cluster: expand: %w", err)
		}

		// Merge verdict flags back into global position order, and take
		// the scan-order-minimal violation across peers.
		flags := make([]byte, len(level))
		vioOrder := ^uint64(0)
		hasVio := false
		for _, pb := range batches {
			if pb == nil || pb.reply == nil {
				continue
			}
			for i, pos := range pb.entries.vals {
				flags[pos] = pb.reply.flags[i]
			}
			if pb.reply.hasVio && (!hasVio || pb.reply.vioOrder < vioOrder) {
				hasVio = true
				vioOrder = pb.reply.vioOrder
			}
		}
		for pos, id := range level {
			if flags[pos]&flagBad != 0 {
				res.BadFound = true
				res.BadStates = append(res.BadStates, states.At(id))
			}
			if flags[pos]&flagDead != 0 {
				res.Deadlock = true
				res.Deadlocks = append(res.Deadlocks, states.At(id))
			}
		}

		// Collect pending discoveries from every owner.
		collected := make([]*batch, len(nd.peers)) // vals are order keys
		err = nd.broadcast(func(peer int) error {
			pid := trace.PairID(lvl, trace.RPCCollect, nd.self, peer)
			wire[peer].FrameSend(pid, 0)
			resp, cancel, err := nd.post(ctx, peer, "/cluster/v1/collect", jobID, pid, bytes.NewBuffer(nil), "application/octet-stream")
			if err != nil {
				return err
			}
			defer cancel()
			defer resp.Body.Close()
			cr := &countingReader{r: resp.Body}
			list, err := decodeBatch(cr, frameCollect, n.Words())
			if err != nil {
				return err
			}
			nd.addBytes(&bytesIn, cr.n)
			wire[peer].FrameRecv(pid, cr.n)
			collected[peer] = list
			return nil
		})
		if err != nil {
			if ctx.Err() != nil {
				return abort()
			}
			return nil, fmt.Errorf("cluster: collect: %w", err)
		}
		tk.Emit(trace.KindPhaseBegin, phMerge, lvl)
		var discovered []reach.Discovery
		for peer, list := range collected {
			for i, order := range list.vals {
				discovered = append(discovered, reach.Discovery{Order: order, Shard: uint32(peer), Local: int32(i)})
			}
		}
		reach.SortDiscoveries(discovered)

		trigger, capped, unsafeFirst := reach.PlanLevel(discovered, states.Len(), limit, vioOrder, hasVio)
		if unsafeFirst {
			pos := reach.OrderPos(vioOrder)
			t := reach.OrderTrans(vioOrder)
			return nil, fmt.Errorf("%w: firing %s from %s double-marks a place",
				reach.ErrUnsafe, n.TransName(t), states.At(level[pos]).String(n))
		}

		// Assign ids in first-encounter order and commit them back.
		nextLevel := make([]int, 0, len(discovered))
		commitByOwner := make([]batch, len(nd.peers)) // vals are state ids
		for _, d := range discovered {
			if d.Order >= trigger {
				break
			}
			m := collected[d.Shard].marking(int(d.Local))
			hash := m.Hash()
			if states.Lookup(m, hash) >= 0 {
				return nil, fmt.Errorf("cluster: collect: %s returned an already interned state", nd.peers[d.Shard])
			}
			id := intern(m, hash)
			commitByOwner[nd.ownerOf(hash)].add(m, uint64(id))
			nextLevel = append(nextLevel, id)
		}
		tk.Emit(trace.KindPhaseEnd, phMerge, lvl)
		// Every peer gets a commit — an empty one still clears the
		// level's pending set.
		err = nd.broadcast(func(peer int) error {
			sent, err := nd.sendBatch(ctx, wire[peer], phSerialize, lvl, trace.RPCCommit, peer, "/cluster/v1/commit", jobID, frameCommit, &commitByOwner[peer])
			nd.addBytes(&bytesOut, sent)
			return err
		})
		if err != nil {
			if ctx.Err() != nil {
				return abort()
			}
			return nil, fmt.Errorf("cluster: commit: %w", err)
		}

		// Count arcs from the examined orders; on the capped path only
		// firings the sequential scan reached before the trigger.
		for _, pb := range batches {
			if pb == nil || pb.reply == nil {
				continue
			}
			if !capped {
				res.Arcs += len(pb.reply.orders)
				continue
			}
			for _, ord := range pb.reply.orders {
				if ord < trigger {
					res.Arcs++
				}
			}
		}

		if capped {
			for _, id := range nextLevel {
				m := states.At(id)
				if o.Bad != nil && o.Bad(m) {
					res.BadFound = true
					res.BadStates = append(res.BadStates, m)
				}
				if n.IsDeadlock(m) {
					res.Deadlock = true
					res.Deadlocks = append(res.Deadlocks, m)
				}
			}
			res.States = states.Len()
			res.Complete = false
			return res, reach.ErrStateLimit
		}

		level = nextLevel
	}

	res.States = states.Len()
	tk.End(phExplore)
	return res, nil
}

// assignLevel buckets the level's positions by parent shard, assigns
// each bucket to the shard's owner, then steals whole buckets from the
// most-loaded peer for any peer under the watermark
// max(1, len(level)/(4*peers)). Returns positions per peer and the
// steal count. Each steal is stamped on tk (nil for untraced runs)
// with the positions moved.
func (nd *Node) assignLevel(level []int, stateShard []uint32, tk *trace.Track, lvl int64) ([][]int, int64) {
	nPeers := len(nd.peers)
	buckets := make([][]int, reach.NumShards)
	for pos, id := range level {
		sh := stateShard[id]
		buckets[sh] = append(buckets[sh], pos)
	}
	bucketOwner := make([]int, reach.NumShards)
	loads := make([]int, nPeers)
	for sh := range buckets {
		bucketOwner[sh] = nd.owners[sh]
		loads[nd.owners[sh]] += len(buckets[sh])
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
		for sh := range buckets {
			if bucketOwner[sh] == donor && len(buckets[sh]) > bestSz {
				best, bestSz = sh, len(buckets[sh])
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
	for sh, positions := range buckets {
		if len(positions) > 0 {
			assign[bucketOwner[sh]] = append(assign[bucketOwner[sh]], positions...)
		}
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
