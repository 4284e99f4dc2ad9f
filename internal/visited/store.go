// Package visited is the visited store of every explicit explorer
// (internal/reach sequential and parallel, internal/stubborn): a set of
// fixed-width markings with dense ids in insertion order.
//
// Markings live as raw words in a chunked arena — an id is an arena
// position, and a chunk never moves once allocated, so the views At hands
// out stay valid for the life of the store. Membership is an
// open-addressed, linear-probing table of 32-bit entries over the
// marking's 64-bit hash (petri.Marking.Hash), doubled at ¾ load, like
// the decision diagrams' unique table (internal/dd). Unlike that table's,
// an entry holds an id and, in the bits the id leaves free, a tag of the
// hash, so a probe passes most other markings without reading the arena. No key string is built,
// and looking up a stored marking allocates nothing.
package visited

import (
	"math/bits"

	"repro/internal/petri"
)

// MaxLen is the largest number of markings a Store holds: ids are stored
// +1 below the tag of a 32-bit table entry (zero marks an empty slot).
const MaxLen = 1<<31 - 1

// Limit returns the state count at which an explorer stops with its
// state-limit error: maxStates, or MaxLen when no cap (zero) or a larger
// one was asked for, so ids never wrap.
func Limit(maxStates int) int {
	if maxStates <= 0 || maxStates > MaxLen {
		return MaxLen
	}
	return maxStates
}

// Arena chunk c holds 1<<(firstLog+c) markings until chunks reach
// 1<<lastLog markings; from there on every chunk has that size. An empty
// or small store (a ten-state net) costs a few hundred bytes, a large one
// wastes at most one 64 Ki-marking chunk.
const (
	firstLog  = 4
	lastLog   = 16
	geoChunks = lastLog - firstLog             // chunks in the doubling regime
	geoLen    = (1<<geoChunks - 1) << firstLog // markings they hold together
	minTable  = 1 << firstLog                  // slots of the first id table
)

// Store is a set of markings of one width. The zero value is an empty
// store ready for use; the width is fixed by the first Insert. A Store is
// not safe for concurrent use, but a copy of one keeps reading (At) the
// markings stored when it was taken while the original grows.
type Store struct {
	w      int        // words per marking
	n      int        // markings stored
	chunks [][]uint64 // arena
	table  []uint32   // tag<<k | id+1 per slot, k = log2(len(table)); 0 = empty
	shift  uint       // 64 - k
}

// rehash re-derives a stored marking's hash when a table grows. The tests
// swap it, together with the hash argument they pass, to force collisions.
var rehash = petri.Marking.Hash

// Len returns the number of markings stored; ids are 0..Len()-1.
func (s *Store) Len() int { return s.n }

// locate splits an id into its chunk and the marking's index within it.
func locate(id int) (chunk, idx int) {
	if id < geoLen {
		c := bits.Len(uint(id>>firstLog+1)) - 1
		return c, id - (1<<c-1)<<firstLog
	}
	id -= geoLen
	return geoChunks + id>>lastLog, id & (1<<lastLog - 1)
}

// At returns the marking with the given id as a view into the arena. The
// view stays valid and must not be modified.
func (s *Store) At(id int) petri.Marking {
	c, i := locate(id)
	lo, hi := i*s.w, (i+1)*s.w
	return s.chunks[c][lo:hi:hi]
}

// slot is the home slot of a hash: the top k bits of a Fibonacci
// multiply (by 2^64/φ), which depend on every bit of the hash. The low
// bits alone would not do: within one worker's store of the parallel
// explorer they are nearly all equal, reach's shard routing having
// consumed them.
// tag is the next 32−k product bits, shifted above the id: since
// id+1 ≤ Len ≤ ¾·2^k, an id fits in the low k bits of an entry, and the
// entry of a stored marking is its tag | id+1.
func (s *Store) slot(hash uint64) (i int, tag uint32) {
	top := hash * 0x9e3779b97f4a7c15 >> 32
	return int(top >> (s.shift - 32)), uint32(top << (64 - s.shift))
}

// Lookup returns the id of the marking, or -1 if it is not stored. hash
// must be its petri.Marking.Hash.
func (s *Store) Lookup(m petri.Marking, hash uint64) int {
	if s.table == nil {
		return -1
	}
	mask := len(s.table) - 1
	i, tag := s.slot(hash)
	for ; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			return -1
		}
		if id := int(e&uint32(mask)) - 1; e&^uint32(mask) == tag && s.At(id).Equal(m) {
			return id
		}
	}
}

// Insert stores a copy of the marking, which must not be stored already
// (Lookup returned -1), and returns its id, the previous Len.
func (s *Store) Insert(m petri.Marking, hash uint64) int {
	switch {
	case s.table == nil:
		s.w = len(m)
		s.table = make([]uint32, minTable)
		s.shift = uint(64 - bits.TrailingZeros(minTable))
	case len(m) != s.w:
		panic("visited: marking width changed")
	case s.n == MaxLen:
		panic("visited: store full")
	case (s.n+1)*4 > len(s.table)*3:
		s.grow()
	}
	id := s.n
	c, i := locate(id)
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]uint64, s.w<<min(firstLog+c, lastLog)))
	}
	copy(s.chunks[c][i*s.w:], m)
	s.n++
	s.place(id, hash)
	return id
}

// place enters id at the first free slot of its probe sequence.
func (s *Store) place(id int, hash uint64) {
	mask := len(s.table) - 1
	i, tag := s.slot(hash)
	for s.table[i] != 0 {
		i = (i + 1) & mask
	}
	s.table[i] = tag | uint32(id+1)
}

// grow doubles the id table and re-homes every stored marking; an entry
// keeps no hash, only a tag of it, so rehashing reads the arena.
func (s *Store) grow() {
	s.table = make([]uint32, 2*len(s.table))
	s.shift--
	for id := 0; id < s.n; id++ {
		s.place(id, rehash(s.At(id)))
	}
}
