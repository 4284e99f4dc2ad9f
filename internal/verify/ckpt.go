package verify

// Engine-agnostic checkpoint/resume plumbing: one Checkpointer serves
// the engines' hooks (reach's at BFS level boundaries, core's at DFS
// step boundaries, all of them stop.Hook) and one EngineSnapshot union
// carries whichever snapshot the selected engine produced. The durable
// on-disk format lives in internal/ckpt; this layer only decides which
// engine speaks and wraps its snapshot.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/reach"
	"repro/internal/stop"
)

// ErrCkptUnsupported is returned when Options.Ckpt or Options.Resume is
// set for an engine (or engine configuration) that cannot checkpoint:
// only Exhaustive, GPO and GPOExplicit have deterministic boundary
// snapshots; PartialOrder, Symbolic and Unfolding do not.
var ErrCkptUnsupported = errors.New("verify: engine does not support checkpoint/resume")

// Checkpointer enables checkpointing for checkpoint-capable engines.
// Poll is consulted at every engine boundary — a BFS level boundary for
// Exhaustive, a DFS step for the GPO engines — with the states-explored
// count and the boundary coordinate; Save receives the snapshot when
// Poll answers stop.Save or stop.Suspend. On stop.Suspend the check
// returns a partial Report with Checkpointed set (and no error), the
// way cooperative aborts return Aborted. A Save error fails the check.
type Checkpointer = stop.Hook[*EngineSnapshot]

// EngineSnapshot is the union of the engines' snapshot types; exactly
// one field is non-nil, matching the engine that produced it. Boundary
// returns the engine-appropriate resume coordinate.
type EngineSnapshot struct {
	Reach *reach.Snapshot
	Core  *core.Snapshot
}

// Boundary returns the snapshot's deterministic boundary coordinate:
// the BFS level for exhaustive snapshots, the DFS step for GPO ones.
func (s *EngineSnapshot) Boundary() int64 {
	switch {
	case s == nil:
		return -1
	case s.Reach != nil:
		return int64(s.Reach.Levels)
	case s.Core != nil:
		return s.Core.Steps
	}
	return -1
}

// States returns the number of interned states in the snapshot.
func (s *EngineSnapshot) States() int {
	switch {
	case s == nil:
		return 0
	case s.Reach != nil:
		return len(s.Reach.States)
	case s.Core != nil:
		return s.Core.NumStates
	}
	return 0
}

// engineHook adapts the Checkpointer to an engine whose snapshots have
// type S: Poll is shared as is and Save wraps the snapshot in the union.
func engineHook[S any](c *Checkpointer, wrap func(S) *EngineSnapshot) *stop.Hook[S] {
	if c == nil {
		return nil
	}
	h := &stop.Hook[S]{Poll: c.Poll}
	if c.Save != nil {
		h.Save = func(sn S) error { return c.Save(wrap(sn)) }
	}
	return h
}

// validateCkpt gates checkpoint/resume to the configurations whose
// boundaries are deterministic, keeping the unsupported combinations a
// typed, pre-flight error instead of a mid-run surprise.
func (o Options) validateCkpt() error {
	if o.Ckpt == nil && o.Resume == nil {
		return nil
	}
	if !o.Engine.valid() || !engines[o.Engine].ckpt {
		return fmt.Errorf("%w: %s", ErrCkptUnsupported, o.Engine)
	}
	if o.Resume != nil {
		wantReach := o.Engine == Exhaustive
		if wantReach && o.Resume.Reach == nil || !wantReach && o.Resume.Core == nil {
			return fmt.Errorf("%w: resume snapshot does not match engine %s", ErrCkptUnsupported, o.Engine)
		}
	}
	return nil
}

// Checkpointable reports (pre-flight) whether this option set could run
// under a Checkpointer: the jobs layer uses it to reject unsupported
// submissions with a client error instead of a mid-run surprise.
func (o Options) Checkpointable() error {
	probe := o
	probe.Ckpt = &Checkpointer{}
	probe.Resume = nil
	return probe.validateCkpt()
}

// resumeReach returns the exhaustive-engine snapshot to resume from,
// nil when starting fresh.
func (o Options) resumeReach() *reach.Snapshot {
	if o.Resume == nil {
		return nil
	}
	return o.Resume.Reach
}

// resumeCore returns the GPO-engine snapshot to resume from, nil when
// starting fresh.
func (o Options) resumeCore() *core.Snapshot {
	if o.Resume == nil {
		return nil
	}
	return o.Resume.Core
}
