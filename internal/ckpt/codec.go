package ckpt

// Frame payload codecs for ckpt/v1, in internal/codec's primitives:
// payloads are self-delimiting, every decoder consumes its payload
// exactly, and a mutation anywhere surfaces as a decode error or a
// digest mismatch, never as a silently different run.

import (
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

const (
	kindReach byte = 'R'
	kindCore  byte = 'C'
)

func encodeHeader(f *File) []byte {
	b := codec.AppendUvarint(nil, version)
	b = append(b, f.Key[:]...)
	b = codec.AppendBytes(b, f.Check)
	b = codec.AppendInts(b, f.Bad)
	b = codec.AppendInt(b, f.Engine)
	flags := uint64(0)
	if f.StopAtFirst {
		flags |= 1
	}
	if f.Proviso {
		flags |= 2
	}
	if f.Reduce {
		flags |= 4
	}
	b = codec.AppendUvarint(b, flags)
	b = codec.AppendInt(b, f.MaxStates)
	b = codec.AppendInt(b, f.MaxNodes)
	if f.Snap.Reach != nil {
		b = append(b, kindReach)
	} else {
		b = append(b, kindCore)
	}
	b = codec.AppendInt(b, f.States())
	b = codec.AppendUvarint(b, uint64(f.Boundary()))
	return codec.AppendBytes(b, verify.AppendNetKey(nil, f.Net))
}

// decodeHeader parses the header frame; the engine kind is implied by
// which engine frame follows, so only the state count is returned for
// cross-checking. The net travels as its canonical encoding
// (verify.AppendNetKey), so the run identity and the stored net can
// never disagree.
func decodeHeader(b []byte) (*File, int, error) {
	d := codec.NewDec(b)
	if v := d.Uvarint(); d.Err() == nil && v != version {
		return nil, 0, fmt.Errorf("%w: container version %d, this build reads %d", ErrUnsupported, v, version)
	}
	f := &File{}
	copy(f.Key[:], d.Raw(len(f.Key)))
	f.Check = d.String()
	f.Bad = codec.Ints[petri.Place](&d)
	f.Engine = verify.Engine(d.Int())
	flags := d.Uvarint()
	f.StopAtFirst = flags&1 != 0
	f.Proviso = flags&2 != 0
	f.Reduce = flags&4 != 0
	f.MaxStates = d.Int()
	f.MaxNodes = d.Int()
	if kind := d.Byte(); kind != kindReach && kind != kindCore {
		d.Fail("unknown engine kind %q", kind)
	}
	states := d.Int()
	d.Uvarint() // boundary, informational
	netBlob := d.Bytes()
	if err := d.Done(); err != nil {
		return nil, 0, corrupt("header: %v", err)
	}
	var err error
	if f.Net, err = verify.DecodeNetKey(netBlob); err != nil {
		return nil, 0, corrupt("header: %v", err)
	}
	for _, p := range f.Bad {
		if int(p) >= f.Net.NumPlaces() {
			return nil, 0, corrupt("header: bad place %d out of range", p)
		}
	}
	return f, states, nil
}

// ---- reach snapshot ----

// encodeShards partitions the interned markings into the 256 hash shards
// the parallel explorer and the cluster hand out (reach.ShardOf over the
// marking hash) — one frame per shard, empty shards included, so the container
// shape is deterministic and a dropped segment is always detected.
func encodeShards(sn *reach.Snapshot) [][]byte {
	ids := make([][]int, reach.NumShards)
	for id, m := range sn.States {
		s := reach.ShardOf(m.Hash())
		ids[s] = append(ids[s], id)
	}
	out := make([][]byte, reach.NumShards)
	for s := range out {
		b := codec.AppendInt(nil, s)
		b = codec.AppendInt(b, len(ids[s]))
		for _, id := range ids[s] {
			b = codec.AppendInt(b, id)
			b = codec.AppendWords(b, sn.States[id])
		}
		out[s] = b
	}
	return out
}

// marking reads one marking of a derived net — a monitored or
// structurally reduced one, whose shape is only reconstructed later — so
// any whole number of words but zero is taken.
func marking(d *codec.Dec) petri.Marking {
	m := petri.Marking(d.Words(nil))
	if len(m) == 0 {
		d.Fail("empty marking")
	}
	return m
}

// decodeShard fills one shard segment's markings into states (indexed
// by id) and returns how many it placed. Shard membership is
// re-verified against the marking hash.
func decodeShard(b []byte, states []petri.Marking) (int, error) {
	d := codec.NewDec(b)
	shard := d.Int()
	if shard >= reach.NumShards {
		d.Fail("shard index %d", shard)
	}
	// A state is at least its id and its marking's length byte.
	count := d.Count(2)
	for i := 0; i < count && d.Err() == nil; i++ {
		id, m := d.Int(), marking(&d)
		switch {
		case d.Err() != nil:
		case id >= len(states):
			d.Fail("state id %d out of range", id)
		case states[id] != nil:
			d.Fail("duplicate state %d", id)
		case int(reach.ShardOf(m.Hash())) != shard:
			d.Fail("state %d routed to the wrong shard", id)
		default:
			states[id] = m
		}
	}
	if err := d.Done(); err != nil {
		return 0, corrupt("shard %d: %v", shard, err)
	}
	return count, nil
}

func encodeReach(sn *reach.Snapshot) []byte {
	b := codec.AppendInt(nil, sn.FrontierStart)
	b = codec.AppendInt(b, sn.Arcs)
	b = codec.AppendInt(b, sn.Levels)
	b = codec.AppendInts(b, sn.DeadIDs)
	return codec.AppendInts(b, sn.BadIDs)
}

func decodeReach(b []byte, states []petri.Marking) (*reach.Snapshot, error) {
	d := codec.NewDec(b)
	sn := &reach.Snapshot{States: states}
	sn.FrontierStart = d.Int()
	sn.Arcs = d.Int()
	sn.Levels = d.Int()
	sn.DeadIDs = codec.Ints[int](&d)
	sn.BadIDs = codec.Ints[int](&d)
	if err := d.Done(); err != nil {
		return nil, corrupt("reach: %v", err)
	}
	return sn, nil
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
		sn.Witnesses = append(sn.Witnesses, marking(&d))
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
