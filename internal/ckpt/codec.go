package ckpt

// Frame payload codecs for ckpt/v3, in internal/codec's primitives:
// payloads are self-delimiting, every decoder consumes its payload
// exactly, and a mutation anywhere surfaces as a decode error or a
// digest mismatch, never as a silently different run.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/verify"
)

// corrupt wraps a payload-level decode failure.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ---- header ----

func encodeHeader(f *File) []byte {
	b := codec.AppendUvarint(nil, version)
	b = codec.AppendInt(b, f.States())
	return codec.AppendBytes(b, verify.AppendRunKey(nil, f.Net, f.Check, f.Bad, f.Opts))
}

// decodeHeader parses the header frame and returns the File it names
// plus the state count the engine frames are checked against. The run
// travels as its RunKey pre-image, so the stored run and its identity
// can never disagree.
func decodeHeader(b []byte) (*File, int, error) {
	d := codec.NewDec(b)
	if v := d.Uvarint(); d.Err() == nil && v != version {
		return nil, 0, fmt.Errorf("%w: container version %d, this build reads %d", ErrUnsupported, v, version)
	}
	states := d.Int()
	if d.Err() == nil && states == 0 {
		d.Fail("no states")
	}
	key := d.Bytes()
	if err := d.Done(); err != nil {
		return nil, 0, corrupt("header: %v", err)
	}
	f := &File{}
	var err error
	f.Net, f.Check, f.Bad, f.Opts, err = verify.DecodeRunKey(key)
	switch {
	case errors.Is(err, verify.ErrRunKeyFormat):
		return nil, 0, fmt.Errorf("%w: %v", ErrUnsupported, err)
	case err != nil:
		return nil, 0, corrupt("header: %v", err)
	}
	return f, states, nil
}

// ---- reach snapshot ----

// segmentBytes is the size a states segment is cut at: markings go in
// id order, as many whole ones per segment as fit.
const segmentBytes = 1 << 20

// appendStates appends the markings, all words wide, to img as
// consecutive frames of raw little-endian words — no ids, no lengths.
func appendStates(img []byte, states []petri.Marking, words int) ([]byte, error) {
	per := max(1, segmentBytes/(8*words))
	var seg []byte
	for lo := 0; lo < len(states); lo += per {
		seg = seg[:0]
		for _, m := range states[lo:min(lo+per, len(states))] {
			if len(m) != words {
				return nil, fmt.Errorf("ckpt: marking widths differ (%d and %d words)", len(m), words)
			}
			for _, w := range m {
				seg = binary.LittleEndian.AppendUint64(seg, w)
			}
		}
		img = codec.AppendFrame(img, frameStates, seg)
	}
	return img, nil
}

// decodeStates appends one segment's markings to states, all of them
// views into one backing slice. The segment must be whole markings, and
// no more than the header's count of them in all.
func decodeStates(b []byte, words int, states []petri.Marking, count int) ([]petri.Marking, error) {
	n := len(b) / (8 * words)
	if n == 0 || len(b)%(8*words) != 0 {
		return nil, corrupt("states segment of %d bytes is not whole %d-word markings", len(b), words)
	}
	if n > count-len(states) {
		return nil, corrupt("states segment overruns the header's %d states", count)
	}
	backing := make([]uint64, n*words)
	for i := range backing {
		backing[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	for i := 0; i < n; i++ {
		states = append(states, petri.Marking(backing[i*words:(i+1)*words:(i+1)*words]))
	}
	return states, nil
}

func encodeReach(sn *reach.Snapshot, words int) []byte {
	b := codec.AppendInt(nil, words)
	b = codec.AppendInt(b, sn.FrontierStart)
	b = codec.AppendInt(b, sn.Arcs)
	b = codec.AppendInt(b, sn.Levels)
	b = codec.AppendInts(b, sn.DeadIDs)
	return codec.AppendInts(b, sn.BadIDs)
}

// decodeReach parses the exhaustive engine frame: the marking width the
// states segments that follow are cut by, and the snapshot's counters
// and verdict ids (its States are filled from the segments).
func decodeReach(b []byte) (*reach.Snapshot, int, error) {
	d := codec.NewDec(b)
	words := d.Int()
	if d.Err() == nil && words == 0 {
		d.Fail("zero-word markings")
	}
	sn := &reach.Snapshot{}
	sn.FrontierStart = d.Int()
	sn.Arcs = d.Int()
	sn.Levels = d.Int()
	sn.DeadIDs = codec.Ints[int](&d)
	sn.BadIDs = codec.Ints[int](&d)
	if err := d.Done(); err != nil {
		return nil, 0, corrupt("reach: %v", err)
	}
	return sn, words, nil
}

// ---- core snapshot ----

func encodeCore(sn *core.Snapshot) []byte {
	b := codec.AppendInt(nil, sn.NumPlaces)
	b = codec.AppendInt(b, sn.NumStates)
	b = codec.AppendUvarint(b, uint64(sn.Steps))
	b = codec.AppendInt(b, sn.Arcs)
	b = codec.AppendInt(b, sn.MultiFirings)
	b = codec.AppendInt(b, sn.SingleFirings)
	b = codec.AppendUvarint(b, math.Float64bits(sn.PeakValid))
	b = codec.AppendInts(b, sn.DeadStates)
	b = codec.AppendInt(b, len(sn.Witnesses))
	for _, m := range sn.Witnesses {
		b = codec.AppendWords(b, m)
	}
	b = codec.AppendBytes(b, sn.FamilyBlob)
	b = codec.AppendInt(b, len(sn.Frames))
	for _, fr := range sn.Frames {
		b = codec.AppendInt(b, fr.ID)
		b = codec.AppendInt(b, fr.Next)
		flags := uint64(0)
		if fr.Postponed {
			flags |= 1
		}
		if fr.FullDone {
			flags |= 2
		}
		b = codec.AppendUvarint(b, flags)
		b = codec.AppendInt(b, len(fr.Succs))
		for _, sc := range fr.Succs {
			mf := uint64(0)
			if sc.Multiple {
				mf = 1
			}
			b = codec.AppendUvarint(b, mf)
			b = codec.AppendInts(b, sc.Fired)
		}
	}
	return b
}

func decodeCore(b []byte) (*core.Snapshot, error) {
	d := codec.NewDec(b)
	sn := &core.Snapshot{}
	sn.NumPlaces = d.Int()
	sn.NumStates = d.Int()
	sn.Steps = int64(d.Uvarint())
	sn.Arcs = d.Int()
	sn.MultiFirings = d.Int()
	sn.SingleFirings = d.Int()
	sn.PeakValid = math.Float64frombits(d.Uvarint())
	sn.DeadStates = codec.Ints[int](&d)
	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		m := petri.Marking(d.Words(nil))
		if len(m) == 0 {
			d.Fail("empty witness")
		}
		sn.Witnesses = append(sn.Witnesses, m)
	}
	// The blob is copied: the snapshot outlives the file image.
	sn.FamilyBlob = append([]byte(nil), d.Bytes()...)
	// A frame is at least id, next, flags and its successor count; a
	// successor its multiplicity and its fired count.
	for i := d.Count(4); i > 0 && d.Err() == nil; i-- {
		fr := core.FrameSnap{ID: d.Int(), Next: d.Int()}
		flags := d.Uvarint()
		fr.Postponed = flags&1 != 0
		fr.FullDone = flags&2 != 0
		for j := d.Count(2); j > 0 && d.Err() == nil; j-- {
			sc := core.SuccSnap{Multiple: d.Uvarint() != 0}
			sc.Fired = codec.Ints[petri.Trans](&d)
			fr.Succs = append(fr.Succs, sc)
		}
		sn.Frames = append(sn.Frames, fr)
	}
	if err := d.Done(); err != nil {
		return nil, corrupt("core: %v", err)
	}
	return sn, nil
}
