package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip pins each primitive against its inverse and the exact
// bytes of the format rules the package comment states.
func TestRoundTrip(t *testing.T) {
	words := []uint64{0x0123456789abcdef, 1 << 63}
	b := AppendUvarint(nil, 300)
	b = AppendInt(b, int32(7))
	b = AppendBytes(b, "net")
	b = AppendBytes(b, []byte{0xff})
	b = AppendInts(b, []int{0, 127, 128})
	b = AppendInts(b, []int32(nil))
	b = AppendWords(b, words)
	b = append(b, 'R')
	want := []byte{
		0xac, 0x02, // 300
		7,
		3, 'n', 'e', 't',
		1, 0xff,
		3, 0, 127, 0x80, 0x01,
		0,
		16, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x80,
		'R',
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("encoded\n got % x\nwant % x", b, want)
	}
	d := NewDec(b)
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Int(); v != 7 {
		t.Errorf("Int = %d", v)
	}
	if s := d.String(); s != "net" {
		t.Errorf("String = %q", s)
	}
	if s := d.Bytes(); !bytes.Equal(s, []byte{0xff}) {
		t.Errorf("Bytes = % x", s)
	}
	if xs := Ints[int](&d); !reflect.DeepEqual(xs, []int{0, 127, 128}) {
		t.Errorf("Ints = %v", xs)
	}
	if xs := Ints[int32](&d); xs != nil {
		t.Errorf("empty Ints = %v, want nil", xs)
	}
	prefix := []uint64{42}
	if ws := d.Words(prefix); !reflect.DeepEqual(ws, append(prefix, words...)) {
		t.Errorf("Words = %x", ws)
	}
	if c := d.Byte(); c != 'R' {
		t.Errorf("Byte = %q", c)
	}
	if err := d.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

// TestDecRefusals pins every way a payload is refused: each is
// ErrMalformed, none reads past the end, and a count is refused before
// the caller can allocate for it.
func TestDecRefusals(t *testing.T) {
	huge := AppendUvarint(nil, 1<<62) // as a value, a length and a count
	for _, tc := range []struct {
		label string
		in    []byte
		run   func(d *Dec)
	}{
		{"empty uvarint", nil, func(d *Dec) { d.Uvarint() }},
		{"unterminated uvarint", []byte{0x80, 0x80}, func(d *Dec) { d.Uvarint() }},
		{"int above int32", huge, func(d *Dec) { d.Int() }},
		{"count above payload", huge, func(d *Dec) { d.Count(1) }},
		{"ints above payload", huge, func(d *Dec) { Ints[int](d) }},
		{"string above payload", huge, func(d *Dec) { _ = d.String() }},
		{"words above payload", huge, func(d *Dec) { d.Words(nil) }},
		{"raw above payload", []byte{1, 2}, func(d *Dec) { d.Raw(3) }},
		{"byte of nothing", nil, func(d *Dec) { d.Byte() }},
	} {
		d := NewDec(tc.in)
		tc.run(&d)
		if !errors.Is(d.Err(), ErrMalformed) || !errors.Is(d.Done(), ErrMalformed) {
			t.Errorf("%s: Err = %v, want ErrMalformed", tc.label, d.Err())
		}
	}
	d := NewDec([]byte{1, 2})
	if d.Byte(); d.Err() != nil || !errors.Is(d.Done(), ErrMalformed) {
		t.Errorf("trailing byte: Err = %v, Done = %v", d.Err(), d.Done())
	}
	// Count divides what remains by the element size: 4 elements of 3
	// bytes do not fit in 11 bytes, 3 do.
	d = NewDec(append([]byte{4}, make([]byte, 11)...))
	if n := d.Count(3); n != 0 || d.Err() == nil {
		t.Errorf("Count(3) of 4 in 11 bytes = %d, %v", n, d.Err())
	}
	d = NewDec(append([]byte{3}, make([]byte, 11)...))
	if n := d.Count(3); n != 3 || d.Err() != nil {
		t.Errorf("Count(3) of 3 in 11 bytes = %d, %v", n, d.Err())
	}
	// A marking must be whole words.
	d = NewDec(AppendBytes(nil, make([]byte, 12)))
	if ws := d.Words(nil); ws != nil || d.Err() == nil {
		t.Errorf("12-byte marking = %v, %v", ws, d.Err())
	}
	// Int takes exactly the int32 range.
	d = NewDec(AppendUvarint(nil, math.MaxInt32))
	if v := d.Int(); v != math.MaxInt32 || d.Done() != nil {
		t.Errorf("Int(MaxInt32) = %d, %v", v, d.Err())
	}
}

// TestDecSticky pins that the first failure wins and that everything
// after it reads as zero without moving.
func TestDecSticky(t *testing.T) {
	d := NewDec([]byte{5, 1, 2})
	d.Fail("first %d", 1)
	d.Fail("second")
	if d.Uvarint() != 0 || d.Int() != 0 || d.Byte() != 0 || d.Bytes() != nil || d.String() != "" ||
		d.Raw(1) != nil || d.Count(1) != 0 || Ints[int](&d) != nil || d.Words(nil) != nil || len(d.b) != 0 {
		t.Error("a failed Dec returned a non-zero value")
	}
	err := d.Done()
	if !errors.Is(err, ErrMalformed) || err.Error() != "codec: malformed payload: first 1" {
		t.Errorf("Done = %v", err)
	}
}
