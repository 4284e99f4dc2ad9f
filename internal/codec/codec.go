// Package codec is the one binary format under every byte the verifier
// stores: the ckpt/v3 checkpoint container, the family snapshots
// embedded in it and the canonical net encoding behind RunKey
// (DESIGN.md, "Binary codec").
//
// The format has four primitives. An integer is a uvarint. A byte string
// is its uvarint length followed by the bytes. A list is its uvarint
// count followed by the elements. A marking is the byte string of its
// words, little-endian — uvarint(8·w) then w words, exactly
// petri.Marking.Key() behind its length. Payloads travel in frames
// (frame.go).
//
// Encoders append to a caller-owned slice. The decoder, Dec, is bounded
// and sticky: it never reads past its input, refuses a count the
// remaining input cannot hold before the caller allocates for it, and
// after the first failure returns zero values until Done reports that
// failure. Every failure wraps ErrMalformed; the formats' owners wrap it
// again in their own typed error (ckpt.ErrCorrupt, ErrBadSnapshot).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrMalformed is wrapped by every Dec failure.
var ErrMalformed = errors.New("codec: malformed payload")

// Integer is an element type of the integer lists the formats carry:
// ids and counts (int) and place and transition indices (int32).
type Integer interface{ ~int | ~int32 }

// AppendUvarint appends v.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends a non-negative integer.
func AppendInt[T Integer](b []byte, v T) []byte { return binary.AppendUvarint(b, uint64(v)) }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes[T ~string | ~[]byte](b []byte, s T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendInts appends a count-prefixed list of non-negative integers.
func AppendInts[T Integer](b []byte, xs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendUvarint(b, uint64(x))
	}
	return b
}

// AppendWords appends a marking: the byte length 8·len(ws), then the
// words little-endian.
func AppendWords(b []byte, ws []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(8*len(ws)))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// Dec decodes one payload. The zero Dec decodes the empty payload; a Dec
// is a small value meant to live on its caller's stack.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over b. Bytes and Raw return views into b.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Err returns the first failure, if any. Loops driven by a Count test it
// so that a damaged payload stops them at once.
func (d *Dec) Err() error { return d.err }

// Fail records a failure found by the caller — a value out of range, a
// broken cross-reference — unless an earlier one is already recorded.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		d.b = nil
	}
}

// Done reports the first failure, or trailing bytes if the payload was
// not consumed exactly.
func (d *Dec) Done() error {
	if d.err == nil && len(d.b) != 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Uvarint reads one integer.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads one integer that must fit the int32 range every id, index
// and count of the formats lives in.
func (d *Dec) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		d.Fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

// Raw reads n bytes that carry no length prefix.
func (d *Dec) Raw(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.Fail("truncated: want %d bytes, %d remain", n, len(d.b))
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if s := d.Raw(1); s != nil {
		return s[0]
	}
	return 0
}

// Bytes reads a length-prefixed byte string.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.Fail("truncated: byte string of %d, %d remain", n, len(d.b))
		return nil
	}
	return d.Raw(int(n))
}

// String reads a length-prefixed byte string as a string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Count reads a list's element count and refuses it unless the remaining
// input can hold that many elements of at least minBytes each (minBytes
// ≥ 1). The caller may therefore allocate for the count: it is bounded
// by the size of the input, never by what a damaged or hostile count
// claims.
func (d *Dec) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.Fail("count %d exceeds the %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// Ints reads a count-prefixed list of integers (nil when empty).
func Ints[T Integer](d *Dec) []T {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = T(d.Int())
	}
	if d.err != nil {
		return nil
	}
	return xs
}

// Words reads a marking and appends its words to dst. The caller checks
// the width (the words appended) against the net it expects.
func (d *Dec) Words(dst []uint64) []uint64 {
	s := d.Bytes()
	if len(s)%8 != 0 {
		d.Fail("marking of %d bytes is not whole words", len(s))
		return dst
	}
	dst = slices.Grow(dst, len(s)/8)
	for ; len(s) > 0; s = s[8:] {
		dst = append(dst, binary.LittleEndian.Uint64(s))
	}
	return dst
}
