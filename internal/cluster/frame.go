// Package cluster implements distributed exploration: a
// coordinator/worker mode where the wide levels of one exhaustive
// reachability run are expanded across gpod peers, plus the
// consistent-hash ring that places every run's result on one member, so
// the servers' caches form a shared tier in which any peer answers a
// repeat query once one of them has computed it.
//
// The coordinator holds the run's one visited store and drives classical
// BFS levels. It scans a narrow level itself; a wide one it splits among
// the peers by parent shard (the 256 shards of reach.ShardOf in static
// per-peer ranges), one expand RPC each. A peer replies with the
// successors new to it as binary state keys plus provenance order keys,
// length-prefixed frames over persistent HTTP/1.1, and the coordinator
// merges them in (parent, transition) order — so a multi-peer run
// produces bit-identical Results (states, MaxStates stop point,
// ErrUnsafe witness) to the sequential BFS. See DESIGN.md D10.
package cluster

import "repro/internal/codec"

// Frame types of the cluster wire protocol; the frame itself and the
// payload primitives are internal/codec's. Types 0x03, 0x05 and 0x06
// belonged to a retired protocol and are not reused.
const (
	frameExpand   = byte(0x01) // coordinator → peer: level slice to expand
	frameExpandRe = byte(0x02) // peer → coordinator: flags, orders, violation
	frameCollect  = byte(0x04) // peer → coordinator: new successors, after frameExpandRe
)

// MaxFrame bounds a single frame's length field: a frontier batch of a
// plausible level already chunks well below this, so anything larger is
// a corrupt or hostile stream, rejected before allocation.
const MaxFrame = 64 << 20

// The wire-level failure modes are the frame reader's, under this
// package's names.
var (
	// ErrFrameTooLarge is returned for a frame whose declared length
	// exceeds MaxFrame.
	ErrFrameTooLarge = codec.ErrFrameTooLarge
	// ErrTornFrame is returned when the stream ends inside a frame header
	// or body — the wire-level analogue of the ledger's torn tail.
	ErrTornFrame = codec.ErrTornFrame
)
