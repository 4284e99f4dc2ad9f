package cluster

// Binary payload encodings of the cluster protocol. All multi-byte
// integers are uvarints; state keys are length-prefixed raw bytes (a
// key IS the marking's binary encoding, so frontier batches carry full
// states, not references). Requests and replies may span several
// frames; readers loop until EOF, so a large level streams through
// fixed-size chunks instead of one giant allocation.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/petri"
)

// chunkEntries bounds how many entries one frame carries. Levels larger
// than this simply emit several frames in one HTTP body.
const chunkEntries = 8192

// batch is a list of (marking, value) pairs of one net, the shape of
// every bulk frame. The markings lie flat, w words each — decoded
// straight from the wire and appended straight into frames, never as
// strings — and vals[i] is the pair's level position (expand), order key
// (intern, collect) or state id (commit).
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
// (the arcs), and the minimal unsafe-firing order, if any.
type expandReply struct {
	flags    []byte
	orders   []uint64
	vioOrder uint64
	hasVio   bool
}

// encodeBatch writes the pairs as chunked frames of the given type. A
// state key on the wire is its length (8·w) and the words little-endian,
// exactly Marking.Key(); expand frames put the value before the key,
// every other type after it.
func encodeBatch(w io.Writer, typ byte, in *batch) error {
	for lo := 0; lo < in.len() || lo == 0; lo += chunkEntries {
		hi := min(lo+chunkEntries, in.len())
		b := binary.AppendUvarint(nil, uint64(hi-lo))
		for i := lo; i < hi; i++ {
			if typ == frameExpand {
				b = binary.AppendUvarint(b, in.vals[i])
			}
			b = binary.AppendUvarint(b, uint64(8*in.w))
			for _, word := range in.marking(i) {
				b = binary.LittleEndian.AppendUint64(b, word)
			}
			if typ != frameExpand {
				b = binary.AppendUvarint(b, in.vals[i])
			}
		}
		if err := WriteFrame(w, typ, b); err != nil {
			return err
		}
	}
	return nil
}

// decodeBatch reads chunked frames of the given type until EOF. words is
// the marking width of the job's net: a key of any other length (a
// different net, a torn frame) is an error.
func decodeBatch(r io.Reader, typ byte, words, max int) (*batch, error) {
	out := &batch{w: words}
	for {
		ft, payload, err := ReadFrame(r, max)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if ft != typ {
			return nil, errUnexpectedFrame(ft, typ)
		}
		n, err := NextUvarint(&payload)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			var val uint64
			if typ == frameExpand {
				if val, err = NextUvarint(&payload); err != nil {
					return nil, err
				}
			}
			klen, err := NextUvarint(&payload)
			if err != nil {
				return nil, err
			}
			if klen != uint64(8*words) || uint64(len(payload)) < klen {
				return nil, fmt.Errorf("cluster: bad state key in frame payload")
			}
			for ; klen > 0; klen -= 8 {
				out.words = append(out.words, binary.LittleEndian.Uint64(payload))
				payload = payload[8:]
			}
			if typ != frameExpand {
				if val, err = NextUvarint(&payload); err != nil {
					return nil, err
				}
			}
			out.vals = append(out.vals, val)
		}
	}
}

// encodeExpandReply writes the reply as one frame (flags and orders
// are small relative to the batch itself).
func encodeExpandReply(w io.Writer, re *expandReply) error {
	b := binary.AppendUvarint(nil, uint64(len(re.flags)))
	b = append(b, re.flags...)
	b = binary.AppendUvarint(b, uint64(len(re.orders)))
	for _, o := range re.orders {
		b = binary.AppendUvarint(b, o)
	}
	if re.hasVio {
		b = append(b, 1)
		b = binary.AppendUvarint(b, re.vioOrder)
	} else {
		b = append(b, 0)
	}
	return WriteFrame(w, frameExpandRe, b)
}

func decodeExpandReply(r io.Reader, max int) (*expandReply, error) {
	typ, payload, err := ReadFrame(r, max)
	if err != nil {
		return nil, err
	}
	if typ != frameExpandRe {
		return nil, errUnexpectedFrame(typ, frameExpandRe)
	}
	re := &expandReply{}
	n, err := NextUvarint(&payload)
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) < n {
		return nil, io.ErrUnexpectedEOF
	}
	re.flags = append([]byte(nil), payload[:n]...)
	payload = payload[n:]
	no, err := NextUvarint(&payload)
	if err != nil {
		return nil, err
	}
	re.orders = make([]uint64, 0, no)
	for i := uint64(0); i < no; i++ {
		o, err := NextUvarint(&payload)
		if err != nil {
			return nil, err
		}
		re.orders = append(re.orders, o)
	}
	if len(payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	if payload[0] == 1 {
		payload = payload[1:]
		re.vioOrder, err = NextUvarint(&payload)
		if err != nil {
			return nil, err
		}
		re.hasVio = true
	}
	return re, nil
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
