package cluster

// Binary payload encodings of the cluster protocol, in internal/codec's
// primitives. A state key IS the marking's binary encoding, so frontier
// batches carry full states, not references. Requests and replies may
// span several frames; readers loop until EOF, so a large level streams
// through fixed-size chunks instead of one giant allocation.

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/petri"
)

// chunkEntries bounds how many entries one frame carries. Levels larger
// than this simply emit several frames in one HTTP body.
const chunkEntries = 8192

// batch is a list of (marking, value) pairs of one net, the shape of
// every bulk frame. The markings lie flat, w words each — decoded
// straight from the wire and appended straight into frames, never as
// strings — and vals[i] is the pair's level position (expand) or order
// key (collect).
type batch struct {
	w     int
	words []uint64
	vals  []uint64
}

func (b *batch) len() int { return len(b.vals) }

// marking returns pair i's marking as a view into the batch.
func (b *batch) marking(i int) petri.Marking {
	lo, hi := i*b.w, (i+1)*b.w
	return b.words[lo:hi:hi]
}

// add appends a pair; the first one fixes the batch's marking width.
func (b *batch) add(m petri.Marking, val uint64) {
	b.w = len(m)
	b.words = append(b.words, m...)
	b.vals = append(b.vals, val)
}

// posFlags carries a parent position's verdict bits back to the
// coordinator.
const (
	flagDead = 1 << 0
	flagBad  = 1 << 1
)

// expandReply is a peer's account of one expand batch: verdict flags in
// request-entry order, the order keys of every safe firing examined
// (the arcs), and the minimal unsafe-firing order, if any. On the wire
// it is one frameExpandRe frame, followed by the batch's new successors
// as frameCollect frames.
type expandReply struct {
	flags    []byte
	orders   []uint64
	vioOrder uint64
	hasVio   bool
}

// encodeBatch writes the pairs as chunked frames of the given type. A
// state key on the wire is the codec's marking — its length (8·w) and the
// words little-endian, exactly Marking.Key(); expand frames put the value
// before the key, every other type after it.
func encodeBatch(w io.Writer, typ byte, in *batch) error {
	for lo := 0; lo < in.len() || lo == 0; lo += chunkEntries {
		hi := min(lo+chunkEntries, in.len())
		b := codec.AppendInt(nil, hi-lo)
		for i := lo; i < hi; i++ {
			if typ == frameExpand {
				b = codec.AppendUvarint(b, in.vals[i])
			}
			b = codec.AppendWords(b, in.marking(i))
			if typ != frameExpand {
				b = codec.AppendUvarint(b, in.vals[i])
			}
		}
		if err := codec.WriteFrame(w, typ, b); err != nil {
			return err
		}
	}
	return nil
}

// decodeBatch reads chunked frames of the given type until EOF, decoding
// the keys straight into the batch's flat words. words is the marking
// width of the job's net: a key of any other length (a different net, a
// damaged frame) is an error, as are bytes left over behind a frame's
// last entry.
func decodeBatch(r io.Reader, typ byte, words int) (*batch, error) {
	out := &batch{w: words}
	for {
		ft, payload, err := codec.ReadFrame(r, MaxFrame)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if ft != typ {
			return nil, errUnexpectedFrame(ft, typ)
		}
		d := codec.NewDec(payload)
		// An entry is at least its key, the key's length byte and a
		// one-byte value.
		for i := d.Count(8*words + 2); i > 0 && d.Err() == nil; i-- {
			var val uint64
			if typ == frameExpand {
				val = d.Uvarint()
			}
			at := len(out.words)
			out.words = d.Words(out.words)
			if got := len(out.words) - at; got != words {
				d.Fail("state key of %d words, the net has %d", got, words)
			}
			if typ != frameExpand {
				val = d.Uvarint()
			}
			out.vals = append(out.vals, val)
		}
		if err := d.Done(); err != nil {
			return nil, fmt.Errorf("cluster: bad frame (type %d): %w", typ, err)
		}
	}
}

// payload renders the reply as the payload of its one frameExpandRe
// frame (flags and orders are small relative to the batch itself).
func (re *expandReply) payload() []byte {
	b := codec.AppendBytes(nil, re.flags)
	b = codec.AppendInt(b, len(re.orders))
	for _, o := range re.orders {
		b = codec.AppendUvarint(b, o)
	}
	if re.hasVio {
		b = append(b, 1)
		b = codec.AppendUvarint(b, re.vioOrder)
	} else {
		b = append(b, 0)
	}
	return b
}

func decodeExpandReply(r io.Reader) (*expandReply, error) {
	typ, payload, err := codec.ReadFrame(r, MaxFrame)
	if err != nil {
		return nil, err
	}
	if typ != frameExpandRe {
		return nil, errUnexpectedFrame(typ, frameExpandRe)
	}
	d := codec.NewDec(payload)
	re := &expandReply{flags: d.Bytes()}
	re.orders = make([]uint64, 0, d.Count(1))
	for range cap(re.orders) {
		re.orders = append(re.orders, d.Uvarint())
	}
	switch d.Byte() {
	case 0:
	case 1:
		re.vioOrder, re.hasVio = d.Uvarint(), true
	default:
		d.Fail("violation marker is neither 0 nor 1")
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("cluster: bad expand reply frame: %w", err)
	}
	return re, nil
}

// body renders a whole expand reply: the reply frame, then the new
// successors (vals are order keys) as frameCollect frames.
func (re *expandReply) body(news *batch) *bytes.Buffer {
	var buf bytes.Buffer
	_ = codec.WriteFrame(&buf, frameExpandRe, re.payload()) // writes to a Buffer cannot fail
	_ = encodeBatch(&buf, frameCollect, news)
	return &buf
}

// decodeExpandBody reads a whole expand reply, as body writes it, up to
// EOF; words is the marking width of the job's net.
func decodeExpandBody(r io.Reader, words int) (*expandReply, *batch, error) {
	re, err := decodeExpandReply(r)
	if err != nil {
		return nil, nil, err
	}
	news, err := decodeBatch(r, frameCollect, words)
	if err != nil {
		return nil, nil, err
	}
	return re, news, nil
}

// body renders the batch as an HTTP request body of frames of the given
// type.
func (b *batch) body(typ byte) *bytes.Buffer {
	var buf bytes.Buffer
	_ = encodeBatch(&buf, typ, b) // writes to a Buffer cannot fail
	return &buf
}

func errUnexpectedFrame(got, want byte) error {
	return fmt.Errorf("cluster: unexpected frame type %d (want %d)", got, want)
}
