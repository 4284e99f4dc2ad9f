// Package cluster implements distributed sharded exploration: a
// coordinator/worker mode where one exhaustive reachability run is
// partitioned across gpod peers at the visited-store shard boundary,
// plus a consistent-hash shared result-cache tier so any peer answers a
// repeat query once one of them has computed it.
//
// The 256 visited-store shards of internal/reach are split into static
// per-peer ranges by state-key hash (reach.ShardOf). The coordinator
// drives classical BFS levels; peers expand their slice of each level,
// exchange frontier batches (binary state keys plus provenance order
// keys, length-prefixed frames over persistent HTTP/1.1), and the
// coordinator performs the same (parent, transition)-ordered level
// merge as the in-process parallel explorer — so a multi-peer run
// produces bit-identical Results (states, MaxStates stop point,
// ErrUnsafe witness) to the sequential BFS. See DESIGN.md D10.
package cluster

import "repro/internal/codec"

// Frame types of the cluster wire protocol; the frame itself and the
// payload primitives are internal/codec's.
const (
	frameExpand   = byte(0x01) // coordinator → peer: level slice to expand
	frameExpandRe = byte(0x02) // peer → coordinator: flags, orders, violation
	frameIntern   = byte(0x03) // peer → peer: routed successor batch
	frameCollect  = byte(0x04) // peer → coordinator: pending discoveries
	frameCommit   = byte(0x05) // coordinator → peer: id assignments
	frameAck      = byte(0x06) // empty acknowledgement
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
