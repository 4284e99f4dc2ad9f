package reach

// Checkpoint and resume for the reachability explorers.
//
// Both engines are level-synchronous with deterministically assigned
// state ids (the sequential BFS trivially, the parallel explorer through
// the (parent, transition)-ordered level merge, planLevel), so a BFS
// level boundary is a complete, canonical description of the run so far:
// the interned markings in id order, the contiguous frontier suffix that
// has been discovered but not expanded, the arc count, and the verdict
// lists over all interned states. A run restored from such a Snapshot —
// by either engine — explores exactly the states the uninterrupted run
// would have, which is what makes kill-and-resume bit-identical
// (TestResumeBitIdentical) and deterministic prefix replay sound.

import (
	"fmt"

	"repro/internal/petri"
)

// Snapshot is the canonical state of an exploration at a BFS level
// boundary. States holds every interned marking in id order; the
// frontier — discovered during the last expanded level, not yet
// expanded — is the contiguous suffix States[FrontierStart:]. DeadIDs
// and BadIDs are the ids (ascending) behind Result.Deadlocks and
// Result.BadStates, covering all interned states: verdicts are recorded
// at discovery time, so a level boundary never owes any.
type Snapshot struct {
	States        []petri.Marking
	FrontierStart int
	Arcs          int
	DeadIDs       []int
	BadIDs        []int
	// Levels counts the fully expanded BFS levels: the boundary this
	// snapshot was taken at sits before expanding level number Levels.
	// It is the deterministic stop coordinate used by replay.
	Levels int
}

// validateCkptOptions rejects option combinations the checkpoint layer
// does not describe: a stored graph is not part of the Snapshot, so a
// resumed run could not rebuild it.
func validateCkptOptions(opts Options) error {
	if opts.StoreGraph && (opts.Ckpt != nil || opts.Resume != nil) {
		return fmt.Errorf("reach: checkpoint/resume does not support StoreGraph")
	}
	return nil
}

// validateResume sanity-checks a Snapshot against the net before any of
// it is trusted: marking widths, frontier bounds, verdict id ranges and
// id-order verdict lists. Content integrity (bit flips) is the
// checkpoint container's job (internal/ckpt); this guards the engine
// against structurally impossible snapshots.
func validateResume(n *petri.Net, sn *Snapshot) error {
	if len(sn.States) == 0 {
		return fmt.Errorf("reach: resume: snapshot has no states")
	}
	if sn.FrontierStart < 0 || sn.FrontierStart > len(sn.States) {
		return fmt.Errorf("reach: resume: frontier start %d out of range [0,%d]", sn.FrontierStart, len(sn.States))
	}
	if sn.Arcs < 0 || sn.Levels < 0 {
		return fmt.Errorf("reach: resume: negative counters")
	}
	words := (n.NumPlaces() + 63) / 64
	for id, m := range sn.States {
		if len(m) != words {
			return fmt.Errorf("reach: resume: state %d has %d marking words, net needs %d", id, len(m), words)
		}
	}
	for name, ids := range map[string][]int{"dead": sn.DeadIDs, "bad": sn.BadIDs} {
		prev := -1
		for _, id := range ids {
			if id < 0 || id >= len(sn.States) {
				return fmt.Errorf("reach: resume: %s id %d out of range", name, id)
			}
			if id <= prev {
				return fmt.Errorf("reach: resume: %s ids not strictly increasing", name)
			}
			prev = id
		}
	}
	return nil
}

// snapshotAt assembles a Snapshot from the engine-side run state: states
// is handed over as is, the verdict id lists are copied.
func snapshotAt(states []petri.Marking, frontierStart, arcs int, deadIDs, badIDs []int, levels int) *Snapshot {
	return &Snapshot{
		States:        states,
		FrontierStart: frontierStart,
		Arcs:          arcs,
		DeadIDs:       append([]int(nil), deadIDs...),
		BadIDs:        append([]int(nil), badIDs...),
		Levels:        levels,
	}
}

// restoreVerdicts fills the Result's verdict lists from a snapshot's id
// lists against the restored states.
func restoreVerdicts(res *Result, states []petri.Marking, sn *Snapshot) {
	if len(sn.DeadIDs) > 0 {
		res.Deadlock = true
		for _, id := range sn.DeadIDs {
			res.Deadlocks = append(res.Deadlocks, states[id])
		}
	}
	if len(sn.BadIDs) > 0 {
		res.BadFound = true
		for _, id := range sn.BadIDs {
			res.BadStates = append(res.BadStates, states[id])
		}
	}
}
