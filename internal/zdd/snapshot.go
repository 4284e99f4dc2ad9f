package zdd

// Checkpoint support: serializing the subset of the unique table
// reachable from a set of live roots (the place/valid-set families of
// the GPO engine's interned states) and rebuilding it on another
// manager. Node ids are not stable across managers — the unique table
// interns in creation order — so the encoding renumbers reachable
// internal nodes 2,3,… in ascending old-id order (children are created
// before parents, so every child reference points backwards) and the
// decoder replays them through mk, which re-canonicalizes on the target
// manager. Anything keyed by node id (the core engine's state index)
// must therefore be rebuilt after a restore; the families themselves
// are reproduced exactly. A node is written with the element it tests,
// not its level, so the blob means the same families under any level
// order; a decoder whose order puts a node's element below its
// children's refuses the blob.

import (
	"errors"
	"fmt"

	"repro/internal/codec"
)

// ErrBadSnapshot is wrapped by every decode failure: a truncated,
// corrupt or wrong-universe family snapshot.
var ErrBadSnapshot = errors.New("zdd: bad family snapshot")

// EncodeFamilies serializes the families rooted at roots into a
// self-contained blob: universe size, the reachable internal nodes in
// renumbered topological order, and one renumbered reference per root.
// Duplicate roots cost one reference each, not a re-encoding.
func (a *Alg) EncodeFamilies(roots []Node) []byte {
	m := a.m
	m.nodes.Walk()
	reach := 0
	for _, r := range roots {
		reach += m.mark(r)
	}
	b := codec.AppendInt(nil, m.n)
	b = codec.AppendInt(b, reach)
	// Ascending old id is a topological order: mk appends nodes after
	// their children, so Lo/Hi always reference smaller ids, which the
	// scan has renumbered by the time it meets the parent.
	renum := make([]Node, m.nodes.Len())
	renum[Top] = 1
	next := Node(2)
	for n := Node(2); int(n) < len(renum); n++ {
		if !m.nodes.Seen(n) {
			continue
		}
		renum[n] = next
		next++
		nd := m.nodes.At(n)
		b = codec.AppendInt(b, m.elemAt(nd.Level))
		b = codec.AppendInt(b, renum[nd.Lo])
		b = codec.AppendInt(b, renum[nd.Hi])
	}
	b = codec.AppendInt(b, len(roots))
	for _, r := range roots {
		b = codec.AppendInt(b, renum[r])
	}
	return b
}

// DecodeFamilies rebuilds the families of an EncodeFamilies blob on this
// algebra's manager and returns the root nodes in encoding order. The
// nodes are replayed through the canonicalizing constructor, so decoding
// onto a non-empty manager is sound (existing equal nodes are reused);
// structural violations — universe mismatch, out-of-range element,
// forward or zero-suppression-violating child references, a child that
// tests a level at or above its parent's, trailing bytes — are rejected
// with an error wrapping ErrBadSnapshot.
func (a *Alg) DecodeFamilies(blob []byte) ([]Node, error) {
	m := a.m
	d := codec.NewDec(blob)
	if u := d.Int(); u != m.n {
		d.Fail("universe %d, manager has %d", u, m.n)
	}
	// A node is three fields of at least one byte each.
	n := d.Count(3)
	ids := make([]Node, 2, n+2)
	ids[0], ids[1] = Bot, Top
	for i := 0; i < n && d.Err() == nil; i++ {
		elem, lo, hi := d.Int(), d.Int(), d.Int()
		switch {
		case d.Err() != nil:
		case elem >= m.n:
			d.Fail("node %d element %d out of range", i, elem)
		case lo >= len(ids) || hi >= len(ids):
			d.Fail("node %d references a later node", i)
		case hi == 0:
			d.Fail("node %d violates zero-suppression (hi = Bot)", i)
		default:
			if l := m.levelOf(elem); l < m.nodes.At(ids[lo]).Level && l < m.nodes.At(ids[hi]).Level {
				ids = append(ids, m.mk(l, ids[lo], ids[hi]))
			} else {
				d.Fail("node %d on element %d does not test above its children", i, elem)
			}
		}
	}
	roots := make([]Node, d.Count(1))
	for i := 0; i < len(roots) && d.Err() == nil; i++ {
		if ref := d.Int(); ref < len(ids) {
			roots[i] = ids[ref]
		} else {
			d.Fail("root %d out of range", i)
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return roots, nil
}
