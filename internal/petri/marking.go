package petri

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Marking is the token configuration of a safe net: a bitset over places.
// For safe nets a marking m : P → ℕ never exceeds one token per place, so
// the marking is exactly the set {p | m(p) = 1}.
type Marking []uint64

// EmptyMarking returns a marking with no tokens, sized for the net.
func (n *Net) EmptyMarking() Marking { return make(Marking, n.markWords) }

// InitialMarking returns a copy of m₀.
func (n *Net) InitialMarking() Marking { return n.initMark.Clone() }

// Has reports whether place p is marked.
func (m Marking) Has(p Place) bool { return m[p/64]&(1<<uint(p%64)) != 0 }

// Set marks place p.
func (m Marking) Set(p Place) { m[p/64] |= 1 << uint(p%64) }

// Clear unmarks place p.
func (m Marking) Clear(p Place) { m[p/64] &^= 1 << uint(p%64) }

// Clone returns an independent copy of m.
func (m Marking) Clone() Marking {
	out := make(Marking, len(m))
	copy(out, m)
	return out
}

// Equal reports whether two markings of the same net are identical.
func (m Marking) Equal(o Marking) bool {
	if len(m) != len(o) {
		return false
	}
	for i := range m {
		if m[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a map key unique per marking of a given net.
func (m Marking) Key() string {
	var b strings.Builder
	b.Grow(len(m) * 8)
	for _, w := range m {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * uint(i)))
		}
		b.Write(buf[:])
	}
	return b.String()
}

// Hash constants (wyhash's): the seed, the per-word multiplier and the
// final one.
const (
	hashSeed = 0xa0761d6478bd642f
	hashMul  = 0xe7037ed1a0b428db
	hashFin  = 0x8ebc6af09c88c6e3
)

// Hash returns a 64-bit hash of the marking's words: per word one xor
// into the state and one 64×64→128-bit multiply whose halves are folded,
// then a final fold. It is the hash the visited store (internal/visited)
// indexes by and the shard-routing key of the parallel explorer; no
// stored byte and no result depends on its value.
func (m Marking) Hash() uint64 {
	h := uint64(hashSeed)
	for _, w := range m {
		hi, lo := bits.Mul64(h^w, hashMul)
		h = hi ^ lo
	}
	hi, lo := bits.Mul64(h, hashFin)
	return hi ^ lo
}

// KeyHash returns Key() together with Hash().
func (m Marking) KeyHash() (string, uint64) { return m.Key(), m.Hash() }

// Places returns the marked places in increasing order.
func (m Marking) Places() []Place {
	var out []Place
	for wi, w := range m {
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) != 0 {
				out = append(out, Place(wi*64+b))
			}
		}
	}
	return out
}

// String renders the marking using the net's place names, sorted.
func (m Marking) String(n *Net) string {
	var names []string
	for _, p := range m.Places() {
		names = append(names, n.PlaceName(p))
	}
	sort.Strings(names)
	return "{" + strings.Join(names, ",") + "}"
}

// masks returns the pre and post word masks of t.
func (n *Net) masks(t Trans) (pre, post []uint64) {
	lo, hi := int(t)*n.markWords, (int(t)+1)*n.markWords
	return n.preMask[lo:hi:hi], n.postMask[lo:hi:hi]
}

// Enabled implements the classical enabling rule (Definition 2.3):
// t is enabled iff every input place carries a token, i.e. m covers
// t's pre mask word by word.
func (n *Net) Enabled(m Marking, t Trans) bool {
	pre, _ := n.masks(t)
	for i, w := range pre {
		if m[i]&w != w {
			return false
		}
	}
	return true
}

// EnabledTrans returns all transitions enabled in m, in increasing order.
func (n *Net) EnabledTrans(m Marking) []Trans { return n.AppendEnabled(nil, m) }

// AppendEnabled appends the transitions enabled in m to dst, in
// increasing order, and returns the extended slice. Only the transitions
// indexed under m's marked places are tested, the preset mask inline (one
// AND on a one-word net); they come out in place order, nearly sorted,
// and each is inserted at its place in the run. It panics if m is not a
// marking of n's width.
func (n *Net) AppendEnabled(dst []Trans, m Marking) []Trans {
	n.checkWidth(m)
	base := len(dst)
	if len(m) == 1 {
		m0 := m[0]
		for w := m0 & n.indexed[0]; w != 0; w &= w - 1 {
			p := bits.TrailingZeros64(w)
			for _, t := range n.byPlace[n.byPlaceAt[p]:n.byPlaceAt[p+1]] {
				if pre := n.preMask[t]; m0&pre == pre {
					dst = insertSorted(dst, base, t)
				}
			}
		}
		return dst
	}
	for wi, w := range m {
		for w &= n.indexed[wi]; w != 0; w &= w - 1 {
			p := wi<<6 | bits.TrailingZeros64(w)
			for _, t := range n.byPlace[n.byPlaceAt[p]:n.byPlaceAt[p+1]] {
				if n.Enabled(m, t) {
					dst = insertSorted(dst, base, t)
				}
			}
		}
	}
	return dst
}

// insertSorted appends t to dst and moves it down to its place in the
// sorted run dst[base:]; the enabled walk seldom meets one out of order.
func insertSorted(dst []Trans, base int, t Trans) []Trans {
	dst = append(dst, t)
	if i := len(dst) - 1; i > base && dst[i-1] > t {
		for ; i > base && dst[i-1] > t; i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = t
	}
	return dst
}

// IsDeadlock reports whether no transition is enabled in m. Like
// AppendEnabled it tests only the transitions of m's marked places, and
// it panics if m is not a marking of n's width.
func (n *Net) IsDeadlock(m Marking) bool {
	n.checkWidth(m)
	for wi, w := range m {
		for w &= n.indexed[wi]; w != 0; w &= w - 1 {
			p := wi<<6 | bits.TrailingZeros64(w)
			for _, t := range n.byPlace[n.byPlaceAt[p]:n.byPlaceAt[p+1]] {
				if n.Enabled(m, t) {
					return false
				}
			}
		}
	}
	return true
}

// checkWidth panics unless m has the net's word count: a walk over a
// narrower marking would miss the places of its absent words and call a
// state dead that is not.
func (n *Net) checkWidth(m Marking) {
	if len(m) != n.markWords {
		panic(fmt.Sprintf("petri: %d-word marking on %d-word net %s", len(m), n.markWords, n.name))
	}
}

// Fire implements the classical firing rule (Definition 2.4) for safe nets:
// it removes the token from each p ∈ •t \ t•, and adds a token to each
// p ∈ t• \ •t. It returns the successor marking and whether the firing kept
// the net safe (i.e. no output place outside •t was already marked).
// Fire panics if t is not enabled; callers check Enabled first.
func (n *Net) Fire(m Marking, t Trans) (next Marking, safe bool) {
	next = make(Marking, len(m))
	return next, n.FireInto(next, m, t)
}

// FireInto is Fire into a caller-owned marking: dst = (m &^ •t) | t•,
// with the same safety verdict and the same panic on a disabled
// transition. dst may not alias m. The explorers fire every arc into one
// scratch marking and copy it only when the successor turns out new.
func (n *Net) FireInto(dst, m Marking, t Trans) (safe bool) {
	pre, post := n.masks(t)
	safe = true
	for i, w := range pre {
		if m[i]&w != w {
			panic("petri: firing disabled transition " + n.transNames[t])
		}
		rest := m[i] &^ w
		if rest&post[i] != 0 {
			safe = false
		}
		dst[i] = rest | post[i]
	}
	return safe
}
