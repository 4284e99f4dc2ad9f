// Package tset implements fixed-universe bitsets of transition indices.
//
// A TSet is the "color" of a token in a Generalized Petri Net: a set of
// transitions that can act together as one consistent resolution of the
// net's conflicts. Families of TSets (see internal/family and internal/zdd)
// are the marking values of GPN places.
//
// The universe (number of transitions) is fixed when a set is created; all
// binary operations require operands of the same width and panic otherwise,
// since mixing universes is a programming error, not an input error.
package tset

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

const wordBits = 64

// TSet is a set of small non-negative integers (transition indices) backed
// by a fixed-width bitset. The zero value is an empty set over an empty
// universe; use New to create a set over a non-trivial universe.
type TSet struct {
	words []uint64
	n     int // universe size
}

// New returns an empty set over a universe of n elements {0, …, n-1}.
func New(n int) TSet {
	if n < 0 {
		panic("tset: negative universe size")
	}
	return TSet{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Of returns a set over a universe of n elements containing the given members.
func Of(n int, members ...int) TSet {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Full returns the set containing every element of an n-element universe.
func Full(n int) TSet {
	s := New(n)
	for w := range s.words {
		s.words[w] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears bits beyond the universe in the last word.
func (s *TSet) trim() {
	if len(s.words) == 0 {
		return
	}
	if rem := s.n % wordBits; rem != 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Universe returns the size of the universe the set ranges over.
func (s TSet) Universe() int { return s.n }

// Clone returns an independent copy of s.
func (s TSet) Clone() TSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return TSet{words: w, n: s.n}
}

// Add inserts element i. It panics if i is outside the universe.
func (s TSet) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes element i. It panics if i is outside the universe.
func (s TSet) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is a member. It panics if i is outside the universe.
func (s TSet) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s TSet) check(i int) {
	if i < 0 || i >= s.n {
		panic("tset: element " + strconv.Itoa(i) + " outside universe of size " + strconv.Itoa(s.n))
	}
}

func (s TSet) sameUniverse(t TSet) {
	if s.n != t.n {
		panic("tset: mixed universes " + strconv.Itoa(s.n) + " and " + strconv.Itoa(t.n))
	}
}

// IsEmpty reports whether the set has no members.
func (s TSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members.
func (s TSet) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether s and t have the same members over the same universe.
func (s TSet) Equal(t TSet) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t as a new set.
func (s TSet) Union(t TSet) TSet {
	s.sameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] |= w
	}
	return r
}

// Intersect returns s ∩ t as a new set.
func (s TSet) Intersect(t TSet) TSet {
	s.sameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &= w
	}
	return r
}

// Diff returns s \ t as a new set.
func (s TSet) Diff(t TSet) TSet {
	s.sameUniverse(t)
	r := s.Clone()
	for i, w := range t.words {
		r.words[i] &^= w
	}
	return r
}

// Intersects reports whether s ∩ t is non-empty.
func (s TSet) Intersects(t TSet) bool {
	s.sameUniverse(t)
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s is a member of t.
func (s TSet) SubsetOf(t TSet) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Compare orders sets lexicographically by their word representation
// (low elements most significant last). It returns -1, 0, or +1. Sets over
// different universes order by universe size first.
func (s TSet) Compare(t TSet) int {
	if s.n != t.n {
		if s.n < t.n {
			return -1
		}
		return 1
	}
	for i := len(s.words) - 1; i >= 0; i-- {
		if s.words[i] != t.words[i] {
			if s.words[i] < t.words[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Precedes reports whether s comes before t when sets are ordered by
// their smallest elements first: the smallest element in exactly one of
// them is in s. It is the order in which a depth-first walk meets the
// sets when it tries each element's presence before its absence,
// smallest element first.
func (s TSet) Precedes(t TSet) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if x := w ^ t.words[i]; x != 0 {
			return w&(x&-x) != 0
		}
	}
	return false
}

// Key returns a string usable as a map key, unique per (universe, members).
// The universe size is encoded ahead of the member words: sets over
// different universes can share an identical word representation (e.g.
// empty sets over 60 and 64 elements) and must not collide.
func (s TSet) Key() string {
	var b strings.Builder
	b.Grow(8 + len(s.words)*8)
	var nbuf [8]byte
	for i := 0; i < 8; i++ {
		nbuf[i] = byte(uint64(s.n) >> (8 * uint(i)))
	}
	b.Write(nbuf[:])
	for _, w := range s.words {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * uint(i)))
		}
		b.Write(buf[:])
	}
	return b.String()
}

// Members returns the elements in increasing order.
func (s TSet) Members() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls fn for each member in increasing order.
func (s TSet) ForEach(fn func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Min returns the smallest member, or -1 if the set is empty.
func (s TSet) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// String renders the set as {a,b,c} using element indices.
func (s TSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}

// StringNamed renders the set as {name,…} using the supplied name function.
func (s TSet) StringNamed(name func(int) string) string {
	var names []string
	s.ForEach(func(i int) { names = append(names, name(i)) })
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}
