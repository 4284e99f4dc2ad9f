// Package stop provides what the exploration engines poll at their
// boundaries: the cooperative-cancellation helper (Checker) and the
// checkpoint hook (Hook). Every engine loop is single-goroutine and
// CPU-bound, so a request deadline or client disconnect can only take
// effect if the loop itself checks for it; Checker amortizes that check
// so the uncancelled hot path pays one increment-and-compare per unit of
// work instead of a context.Context.Err call (which may take a mutex).
//
// Like the metrics in internal/obs, a nil *Checker is valid and free:
// engines construct one with Every(opts.Ctx, period) and call Poll
// unconditionally, so running without a context costs a single
// predictable nil check per iteration and cancellation support never
// perturbs what an uncancelled run explores.
//
// The checkpoint half is one protocol for every checkpoint-capable
// engine (reach's BFS level boundaries, core's DFS steps, and verify's
// engine-agnostic Checkpointer over both): the hook is polled with the
// interned state count and the boundary coordinate, answers an Action,
// and Hook.At builds, saves and suspends accordingly.
package stop

import (
	"context"
	"errors"
	"fmt"
)

// Checker polls a context's cancellation, amortized over a period of
// calls. It is not safe for concurrent use; parallel engines give each
// worker its own Checker (or check the context directly at a coarser
// granularity).
type Checker struct {
	ctx    context.Context
	period uint32
	n      uint32
	err    error
}

// Every returns a Checker whose Poll consults ctx.Err() on the first
// call and then once per period calls. A nil ctx yields a nil Checker,
// which is valid: its Poll always returns nil.
func Every(ctx context.Context, period uint32) *Checker {
	if ctx == nil {
		return nil
	}
	if period == 0 {
		period = 1
	}
	// Start one shy of the period so the very first Poll checks: a
	// pre-cancelled context then aborts even a tiny exploration, which
	// keeps the abort paths deterministic to test.
	return &Checker{ctx: ctx, period: period, n: period - 1}
}

// Poll returns the context's error once the context is cancelled, nil
// before that (and always nil on a nil Checker). After the first
// non-nil return every subsequent Poll returns the same error
// immediately.
func (c *Checker) Poll() error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	if c.n++; c.n < c.period {
		return nil
	}
	c.n = 0
	c.err = c.ctx.Err()
	return c.err
}

// Action is a checkpoint hook's verdict at an engine boundary.
type Action int

const (
	// Continue goes on without checkpointing.
	Continue Action = iota
	// Save saves a snapshot and continues.
	Save
	// Suspend saves a snapshot and suspends the run: the engine returns
	// its partial result with ErrSuspended.
	Suspend
)

// ErrSuspended is returned (with the partial result so far) by an engine
// whose checkpoint hook answered Suspend: the run stopped cleanly at a
// boundary after saving its snapshot, it was not aborted.
var ErrSuspended = errors.New("stopped at checkpoint")

// Hook enables checkpointing of an engine whose snapshots have type S.
// Poll is consulted at every boundary with the interned state count and
// the boundary coordinate (a BFS level, a DFS step); Save receives the
// snapshot when Poll answers Save or Suspend and may retain it. A Save
// error fails the run.
type Hook[S any] struct {
	Poll func(states int, boundary int64) Action
	Save func(S) error
}

// At runs the boundary protocol: poll, and unless the answer is
// Continue, build the snapshot with snapshot and save it. It returns
// ErrSuspended when the run must suspend, the Save failure when saving
// failed, and nil to go on. A nil Hook (or one without Poll) never
// checkpoints, and snapshot is only called when there is a Save.
func (h *Hook[S]) At(states int, boundary int64, snapshot func() S) error {
	if h == nil || h.Poll == nil {
		return nil
	}
	act := h.Poll(states, boundary)
	if act == Continue {
		return nil
	}
	if h.Save != nil {
		if err := h.Save(snapshot()); err != nil {
			return fmt.Errorf("checkpoint save: %w", err)
		}
	}
	if act == Suspend {
		return ErrSuspended
	}
	return nil
}
