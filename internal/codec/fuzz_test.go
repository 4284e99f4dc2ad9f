package codec

import (
	"bytes"
	"testing"
)

// FuzzDec drives every Dec method over arbitrary bytes in an arbitrary
// order (one script byte per call). The invariants are the decoder's
// whole contract: no input panics it; it only ever moves forward and
// never past the end; what it returns is accounted for, byte for byte,
// by what it consumed — so nothing a Count admits lets a caller allocate
// more than the input's size in elements; and after the first failure
// it is empty and returns zero values.
func FuzzDec(f *testing.F) {
	valid := AppendBytes(AppendWords(AppendInts(AppendUvarint(nil, 300), []int{1, 2, 3}), []uint64{7, 8}), "net")
	f.Add(valid, []byte{0, 5, 6, 4, 8})
	f.Add(valid, []byte{7, 7, 7})
	f.Add(AppendUvarint(nil, 1<<62), []byte{7})
	f.Add(AppendUvarint(nil, 1<<33), []byte{5})
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		d := NewDec(data)
		for _, op := range script {
			failed := d.Err() != nil
			before := len(d.b)
			// view is what the call returned as bytes, elems how many
			// elements of at least one input byte each it returned.
			var view []byte
			var elems int
			zero := true
			switch op % 9 {
			case 0:
				zero = d.Uvarint() == 0
			case 1:
				zero = d.Int() == 0
			case 2:
				zero = d.Byte() == 0
			case 3:
				view = d.Raw(int(op) / 9)
			case 4:
				view = d.Bytes()
			case 5:
				elems = len(Ints[int](&d))
			case 6:
				elems = 8 * len(d.Words(nil))
			case 7:
				// A count is a promise about what follows it.
				min := int(op)/9 + 1
				n := d.Count(min)
				if n*min > len(d.b) {
					t.Fatalf("Count(%d) admitted %d elements, %d bytes remain", min, n, len(d.b))
				}
				zero = n == 0
			case 8:
				zero = d.String() == ""
			}
			zero = zero && len(view) == 0 && elems == 0
			after := len(d.b)
			if after < 0 || after > before {
				t.Fatalf("op %d moved from %d to %d remaining bytes", op%9, before, after)
			}
			if len(view)+elems > before-after {
				t.Fatalf("op %d returned %d bytes and %d elements out of %d consumed", op%9, len(view), elems, before-after)
			}
			if d.Err() == nil && view != nil {
				end := len(data) - after
				if !bytes.Equal(view, data[end-len(view):end]) {
					t.Fatalf("op %d returned bytes that are not the input's", op%9)
				}
			}
			if failed && (!zero || after != 0) {
				t.Fatalf("op %d on a failed Dec returned a value or left %d bytes", op%9, after)
			}
		}
		if err := d.Done(); err == nil && len(d.b) != 0 {
			t.Fatal("Done accepted trailing bytes")
		}
	})
}
