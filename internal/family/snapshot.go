package family

// Checkpoint support for the explicit representation: the reference
// counterpart of the ZDD family snapshot (internal/zdd/snapshot.go).
// Families are serialized as their member sets, deduplicated by
// canonical key so a family shared by many states is encoded once.

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/tset"
)

// ErrBadSnapshot is wrapped by every decode failure.
var ErrBadSnapshot = errors.New("family: bad family snapshot")

// EncodeFamilies serializes the given families into a self-contained
// blob: universe size, a deduplicated family table (each family as its
// member sets, each set as sorted element indices), and one table
// reference per root.
func (a Alg) EncodeFamilies(roots []*Family) []byte {
	table := make([]*Family, 0, len(roots))
	refOf := make(map[string]int, len(roots))
	refs := make([]int, len(roots))
	for i, f := range roots {
		k := f.Key()
		ref, ok := refOf[k]
		if !ok {
			ref = len(table)
			refOf[k] = ref
			table = append(table, f)
		}
		refs[i] = ref
	}
	b := codec.AppendInt(nil, a.n)
	b = codec.AppendInt(b, len(table))
	for _, f := range table {
		b = codec.AppendInt(b, len(f.sets))
		for _, s := range f.sets {
			b = codec.AppendInts(b, s.Members())
		}
	}
	return codec.AppendInts(b, refs)
}

// DecodeFamilies rebuilds the families of an EncodeFamilies blob and
// returns the roots in encoding order. Malformed input — universe
// mismatch, out-of-range elements or references, truncation, trailing
// bytes — is rejected with an error wrapping ErrBadSnapshot.
func (a Alg) DecodeFamilies(blob []byte) ([]*Family, error) {
	d := codec.NewDec(blob)
	if u := d.Int(); u != a.n {
		d.Fail("universe %d, algebra has %d", u, a.n)
	}
	table := make([]*Family, d.Count(1))
	for i := 0; i < len(table) && d.Err() == nil; i++ {
		sets := make([]tset.TSet, 0, d.Count(1))
		for j := cap(sets); j > 0 && d.Err() == nil; j-- {
			els := codec.Ints[int](&d)
			if len(els) > a.n {
				d.Fail("set size %d exceeds universe", len(els))
			}
			s := tset.New(a.n)
			for _, e := range els {
				if e >= a.n {
					d.Fail("element %d out of range", e)
					break
				}
				s.Add(e)
			}
			sets = append(sets, s)
		}
		table[i] = Of(a.n, sets...)
	}
	roots := make([]*Family, d.Count(1))
	for i := 0; i < len(roots) && d.Err() == nil; i++ {
		if ref := d.Int(); ref < len(table) {
			roots[i] = table[ref]
		} else {
			d.Fail("root %d out of range", i)
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return roots, nil
}
