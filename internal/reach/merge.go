package reach

// Exported batch/merge hooks of the parallel frontier-batch explorer.
//
// The deterministic level merge — sort this level's discoveries by
// (parent position, transition) order key, then cut the level at
// whichever comes first of an unsafe firing or the MaxStates+1'th
// intern — is the correctness contract that makes both the in-process
// parallel explorer (parallel.go) and the distributed cluster explorer
// (internal/cluster) bit-identical to the sequential BFS. Both key and
// route their firings with the functions below; the cluster coordinator
// cuts its level in the same merge that interns it, so Discovery and
// the two merge hooks are the parallel explorer's.

import (
	"cmp"
	"slices"

	"repro/internal/petri"
)

// NumShards is the granularity at which the visited store is partitioned:
// a power of two well above any sensible worker count. The parallel
// explorer splits these 256 hash shards among its workers and the cluster
// explorer among its peers, both by ShardRanges, so one hash routes a
// state both to a goroutine's store and to the peer that expands it.
const NumShards = 256

// ShardOf maps a marking hash (petri.Marking.Hash) onto a shard
// index. This also assigns a wide cluster level's parents: a parent goes
// to the peer whose range contains ShardOf(hash), unless stolen.
func ShardOf(hash uint64) uint32 {
	return uint32(hash) & (NumShards - 1)
}

// ShardRanges splits the shards into n contiguous ownership ranges
// [lo, hi), owner i holding [i·256/n, (i+1)·256/n): sizes differ by at
// most one, and an owner beyond the 256th gets an empty range.
func ShardRanges(n int) [][2]int {
	ranges := make([][2]int, n)
	for i := range ranges {
		ranges[i] = [2]int{i * NumShards / n, (i + 1) * NumShards / n}
	}
	return ranges
}

// OrderKey is the deterministic merge key of one examined firing: the
// parent's position in the current BFS level in the high bits, the
// transition index in the low bits — exactly the order the sequential
// BFS scans firings.
func OrderKey(pos int, t petri.Trans) uint64 {
	return uint64(pos)<<32 | uint64(uint32(t))
}

// OrderPos and OrderTrans decompose an OrderKey.
func OrderPos(order uint64) int           { return int(order >> 32) }
func OrderTrans(order uint64) petri.Trans { return petri.Trans(uint32(order)) }

// Discovery is a marking first reached during the current BFS level,
// claimed in a visited-store shard by the first worker to see it. Order
// is the minimal OrderKey over all firings that reached it this level;
// Shard and Local say where the claimant stored the marking (the
// worker and its store id).
type Discovery struct {
	Order uint64
	Shard uint32
	Local int32
}

// SortDiscoveries orders a level's discoveries by merge key — the order
// the sequential BFS first encounters them. Keys are unique within a
// level (each pending marking is claimed in exactly one shard), so the
// sort is total.
func SortDiscoveries(ds []Discovery) {
	slices.SortFunc(ds, func(a, b Discovery) int { return cmp.Compare(a.Order, b.Order) })
}

// PlanLevel establishes a level's stop point before anything from it is
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
func PlanLevel(sorted []Discovery, statesSoFar, maxStates int, vioOrder uint64, hasVio bool) (trigger uint64, capped, unsafeFirst bool) {
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
