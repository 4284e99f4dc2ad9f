package core

// Checkpoint and resume for the generalized partial-order engine.
//
// The DFS is deterministic — successor order, interning order and the
// cycle proviso depend only on the net and the options — so the top of
// the DFS loop is a well-defined boundary: `steps` completed iterations,
// a set of interned states and a stack of frames each holding its
// remaining successors. A Snapshot captures exactly that, with every
// family (the ⟨m,r⟩ components of interned states and of the not yet
// interned successor states held in frames) serialized through the
// algebra's SnapshotCodec into one deduplicated blob. A run restored
// from a Snapshot explores exactly the states the uninterrupted run
// would have, making kill-and-resume bit-identical and step-indexed
// prefix replay sound.
//
// Node/family identifiers are NOT part of the snapshot: the blob is
// decoded by replaying construction through the algebra (zdd mk /
// family interning), so a resume onto a fresh manager — the normal
// case — rebuilds a canonical table and the engine re-keys every state.

import (
	"errors"
	"fmt"

	"repro/internal/petri"
)

// ErrCkptUnsupported is returned when checkpointing is requested but the
// engine's family algebra does not implement SnapshotCodec.
var ErrCkptUnsupported = errors.New("core: algebra does not support checkpointing")

// ErrBadSnapshot is wrapped by every structural snapshot validation
// failure on resume.
var ErrBadSnapshot = errors.New("core: bad engine snapshot")

// SnapshotCodec is implemented by family algebras that can serialize a
// slice of family roots into a self-contained blob and rebuild them.
// Both internal/zdd.Alg (F = zdd.Node) and internal/family.Alg
// (F = *family.Family) implement it. DecodeFamilies must return the
// roots in encoding order and reject malformed input.
type SnapshotCodec[F any] interface {
	EncodeFamilies(roots []F) []byte
	DecodeFamilies(blob []byte) ([]F, error)
}

// SuccSnap is one computed-but-possibly-unvisited successor of a frame.
// Its state's families live in the Snapshot's FamilyBlob.
type SuccSnap struct {
	Fired    []petri.Trans
	Multiple bool
}

// FrameSnap is one DFS stack entry. The frame's own state is the
// interned state ID; successor states follow the interned states in the
// FamilyBlob, in stack-then-successor order.
type FrameSnap struct {
	ID        int
	Succs     []SuccSnap
	Next      int
	Postponed bool
	FullDone  bool
}

// Snapshot is the canonical state of a generalized partial-order
// analysis at a DFS step boundary. FamilyBlob holds, in order, the
// NumPlaces+1 family roots (M[0..NumPlaces-1], R) of every interned
// state in id order, then of every frame successor in stack order —
// encoded by the algebra's SnapshotCodec. The frames' own states are
// referenced by id; onStack is implied (exactly the frame ids).
type Snapshot struct {
	NumPlaces  int
	NumStates  int
	FamilyBlob []byte
	Frames     []FrameSnap

	// Result mirror at the boundary.
	Arcs          int
	MultiFirings  int
	SingleFirings int
	DeadStates    []int
	Witnesses     []petri.Marking
	PeakValid     float64

	// Steps counts completed DFS loop iterations: the deterministic
	// boundary coordinate used by replay.
	Steps int64
}

// validateCkptOptions rejects option combinations the checkpoint layer
// does not describe: the stored graph is not part of the Snapshot.
func validateCkptOptions(opts Options) error {
	if opts.StoreGraph && (opts.Ckpt != nil || opts.Resume != nil) {
		return fmt.Errorf("core: checkpoint/resume does not support StoreGraph")
	}
	return nil
}

// snapshotCodec resolves the algebra's SnapshotCodec, or reports the
// typed unsupported error when checkpointing was requested without one.
func (e *Engine[F]) snapshotCodec() (SnapshotCodec[F], error) {
	if c, ok := any(e.Alg).(SnapshotCodec[F]); ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w (%T)", ErrCkptUnsupported, e.Alg)
}

// snapshotAt assembles a Snapshot of the live DFS. All structural
// slices are copied; families are serialized through the codec.
func (e *Engine[F]) snapshotAt(states []*State[F], stack []*frame[F], res *Result, steps int64, codec SnapshotCodec[F]) *Snapshot {
	np := e.Net.NumPlaces()
	roots := make([]F, 0, (np+1)*len(states))
	for _, s := range states {
		roots = append(roots, s.M...)
		roots = append(roots, s.R)
	}
	frames := make([]FrameSnap, len(stack))
	for i, f := range stack {
		fs := FrameSnap{
			ID:        f.id,
			Next:      f.next,
			Postponed: f.postponed,
			FullDone:  f.fullDone,
			Succs:     make([]SuccSnap, len(f.succs)),
		}
		for j, sc := range f.succs {
			fs.Succs[j] = SuccSnap{
				Fired:    append([]petri.Trans(nil), sc.fired...),
				Multiple: sc.multiple,
			}
			roots = append(roots, sc.state.M...)
			roots = append(roots, sc.state.R)
		}
		frames[i] = fs
	}
	return &Snapshot{
		NumPlaces:     np,
		NumStates:     len(states),
		FamilyBlob:    codec.EncodeFamilies(roots),
		Frames:        frames,
		Arcs:          res.Arcs,
		MultiFirings:  res.MultiFirings,
		SingleFirings: res.SingleFirings,
		DeadStates:    append([]int(nil), res.DeadStates...),
		Witnesses:     append([]petri.Marking(nil), res.Witnesses...),
		PeakValid:     res.PeakValid,
		Steps:         steps,
	}
}

// restoreSnapshot validates a Snapshot against the engine's net,
// decodes the family blob and rebuilds the DFS run state: interned
// states (re-keyed under the current algebra/manager), the state index,
// the on-stack set and the frame stack. Content integrity (bit flips)
// is the checkpoint container's job (internal/ckpt); this guards the
// engine against structurally impossible snapshots.
func (e *Engine[F]) restoreSnapshot(sn *Snapshot, codec SnapshotCodec[F]) (states []*State[F], index map[string]int, onStack map[int]bool, stack []*frame[F], err error) {
	np := e.Net.NumPlaces()
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
	if sn.NumPlaces != np {
		return nil, nil, nil, nil, bad("snapshot has %d places, net has %d", sn.NumPlaces, np)
	}
	if sn.NumStates <= 0 {
		return nil, nil, nil, nil, bad("no interned states")
	}
	if len(sn.Frames) == 0 || sn.Frames[0].ID != 0 {
		return nil, nil, nil, nil, bad("stack does not start at the initial state")
	}
	if sn.Arcs < 0 || sn.MultiFirings < 0 || sn.SingleFirings < 0 || sn.Steps < 0 {
		return nil, nil, nil, nil, bad("negative counters")
	}
	nSuccs := 0
	prevID := -1
	for i, fs := range sn.Frames {
		if fs.ID <= prevID || fs.ID >= sn.NumStates {
			return nil, nil, nil, nil, bad("frame %d id %d out of order or range", i, fs.ID)
		}
		prevID = fs.ID
		if fs.Next < 0 || fs.Next > len(fs.Succs) {
			return nil, nil, nil, nil, bad("frame %d next %d out of range [0,%d]", i, fs.Next, len(fs.Succs))
		}
		nt := e.Net.NumTrans()
		for j, sc := range fs.Succs {
			if len(sc.Fired) == 0 {
				return nil, nil, nil, nil, bad("frame %d succ %d fired nothing", i, j)
			}
			if !sc.Multiple && len(sc.Fired) != 1 {
				return nil, nil, nil, nil, bad("frame %d succ %d single firing of %d transitions", i, j, len(sc.Fired))
			}
			for _, t := range sc.Fired {
				if int(t) < 0 || int(t) >= nt {
					return nil, nil, nil, nil, bad("frame %d succ %d fires transition %d out of range", i, j, t)
				}
			}
		}
		nSuccs += len(fs.Succs)
	}
	prev := -1
	for _, id := range sn.DeadStates {
		if id < 0 || id >= sn.NumStates {
			return nil, nil, nil, nil, bad("dead state id %d out of range", id)
		}
		if id <= prev {
			return nil, nil, nil, nil, bad("dead state ids not strictly increasing")
		}
		prev = id
	}
	words := (np + 63) / 64
	for i, m := range sn.Witnesses {
		if len(m) != words {
			return nil, nil, nil, nil, bad("witness %d has %d marking words, net needs %d", i, len(m), words)
		}
	}

	roots, derr := codec.DecodeFamilies(sn.FamilyBlob)
	if derr != nil {
		return nil, nil, nil, nil, fmt.Errorf("core: resume: %w", derr)
	}
	if want := (np + 1) * (sn.NumStates + nSuccs); len(roots) != want {
		return nil, nil, nil, nil, bad("family blob has %d roots, snapshot shape needs %d", len(roots), want)
	}
	takeState := func() *State[F] {
		s := &State[F]{M: roots[:np:np], R: roots[np]}
		roots = roots[np+1:]
		return s
	}

	states = make([]*State[F], sn.NumStates)
	index = make(map[string]int, sn.NumStates)
	for id := range states {
		s := takeState()
		k := e.key(s)
		if _, dup := index[k]; dup {
			return nil, nil, nil, nil, bad("duplicate state at id %d", id)
		}
		index[k] = id
		states[id] = s
	}
	onStack = make(map[int]bool, len(sn.Frames))
	stack = make([]*frame[F], len(sn.Frames))
	for i, fs := range sn.Frames {
		f := &frame[F]{
			id:        fs.ID,
			state:     states[fs.ID],
			next:      fs.Next,
			postponed: fs.Postponed,
			fullDone:  fs.FullDone,
		}
		if len(fs.Succs) > 0 {
			f.succs = make([]succ[F], len(fs.Succs))
			for j, sc := range fs.Succs {
				fired := sc.Fired
				if !sc.Multiple {
					// Re-share the per-transition singleton like the
					// live engine does.
					fired = e.firedOne[sc.Fired[0]]
				}
				f.succs[j] = succ[F]{fired: fired, multiple: sc.Multiple, state: takeState()}
			}
		}
		onStack[fs.ID] = true
		stack[i] = f
	}
	return states, index, onStack, stack, nil
}

// restoreResult fills a fresh Result from the snapshot's counters.
func restoreResult(res *Result, sn *Snapshot) {
	res.Arcs = sn.Arcs
	res.MultiFirings = sn.MultiFirings
	res.SingleFirings = sn.SingleFirings
	res.DeadStates = append([]int(nil), sn.DeadStates...)
	res.Deadlock = len(res.DeadStates) > 0
	res.Witnesses = append([]petri.Marking(nil), sn.Witnesses...)
	res.PeakValid = sn.PeakValid
}
