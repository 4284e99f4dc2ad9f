// Package structural implements structural (state-space-free) analysis of
// Petri nets: the incidence matrix, nonnegative P-invariants via the
// Farkas algorithm, a safeness certificate built from invariants, and
// siphon/trap computations.
//
// The paper assumes its input nets are safe (Section 2.1). Reachability
// analysis can only refute safeness when it stumbles on a violation;
// P-invariants prove it up front: a place p with an invariant y such that
// y(p) ≥ 1 and y·m₀ = 1 can never hold two tokens. Siphons connect
// structure to deadlocks: the unmarked places of any dead marking form a
// siphon, which makes a useful diagnostic for the engines' witnesses.
package structural

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/petri"
)

// Incidence returns the incidence matrix C with C[p][t] =
// |t•∩{p}| − |•t∩{p}| ∈ {−1,0,1} for ordinary nets (self-loops yield 0).
func Incidence(n *petri.Net) [][]int {
	c := make([][]int, n.NumPlaces())
	for p := range c {
		c[p] = make([]int, n.NumTrans())
	}
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		for _, p := range n.Pre(t) {
			c[p][t]--
		}
		for _, p := range n.Post(t) {
			c[p][t]++
		}
	}
	return c
}

// PInvariants computes a generating set of nonnegative P-invariants —
// vectors y ≥ 0, y ≠ 0 with yᵀC = 0 — using the Farkas algorithm.
// maxRows caps the intermediate row count (the algorithm is worst-case
// exponential); 0 means 4096. It returns an error if the cap is exceeded.
func PInvariants(n *petri.Net, maxRows int) ([][]int, error) {
	if maxRows == 0 {
		maxRows = 4096
	}
	nP, nT := n.NumPlaces(), n.NumTrans()
	c := Incidence(n)

	// Rows are [y | yᵀC-so-far]: start with the identity on places.
	type row struct {
		y []int // length nP
		d []int // length nT, the residual yᵀC
	}
	rows := make([]row, nP)
	for p := 0; p < nP; p++ {
		y := make([]int, nP)
		y[p] = 1
		d := make([]int, nT)
		copy(d, c[p])
		rows[p] = row{y, d}
	}

	for t := 0; t < nT; t++ {
		var zero, pos, neg []row
		for _, r := range rows {
			switch {
			case r.d[t] == 0:
				zero = append(zero, r)
			case r.d[t] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		next := zero
		for _, rp := range pos {
			for _, rn := range neg {
				a, b := -rn.d[t], rp.d[t] // both positive
				g := gcd(a, b)
				a, b = a/g, b/g
				y := make([]int, nP)
				d := make([]int, nT)
				for i := range y {
					y[i] = a*rp.y[i] + b*rn.y[i]
				}
				for i := range d {
					d[i] = a*rp.d[i] + b*rn.d[i]
				}
				// Scale y and d by their joint gcd so the invariant
				// yᵀC = d is preserved.
				g = 0
				for _, v := range y {
					g = gcd(g, v)
				}
				for _, v := range d {
					g = gcd(g, v)
				}
				if g > 1 {
					for i := range y {
						y[i] /= g
					}
					for i := range d {
						d[i] /= g
					}
				}
				next = append(next, row{y, d})
				if len(next) > maxRows {
					return nil, fmt.Errorf("structural: Farkas row cap %d exceeded at transition %d", maxRows, t)
				}
			}
		}
		// Dedupe identical rows to keep the frontier small. The key is
		// the self-delimiting binary encoding of [y | d] — zigzag varints
		// (d residuals go negative), the same AppendKey idiom as the
		// family algebras — rather than fmt.Sprint, which allocated a
		// formatted string per row on this hot path.
		seen := make(map[string]bool, len(next))
		rows = next[:0]
		var kbuf []byte
		for _, r := range next {
			kbuf = kbuf[:0]
			for _, v := range r.y {
				kbuf = binary.AppendVarint(kbuf, int64(v))
			}
			for _, v := range r.d {
				kbuf = binary.AppendVarint(kbuf, int64(v))
			}
			k := string(kbuf)
			if !seen[k] {
				seen[k] = true
				rows = append(rows, r)
			}
		}
	}

	out := make([][]int, 0, len(rows))
	for _, r := range rows {
		if !isZero(r.y) {
			out = append(out, r.y)
		}
	}
	return out, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func isZero(v []int) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// InvariantHolds checks yᵀC = 0.
func InvariantHolds(n *petri.Net, y []int) bool {
	c := Incidence(n)
	for t := 0; t < n.NumTrans(); t++ {
		sum := 0
		for p := 0; p < n.NumPlaces(); p++ {
			sum += y[p] * c[p][t]
		}
		if sum != 0 {
			return false
		}
	}
	return true
}

// Weight returns yᵀm for a marking m.
func Weight(y []int, m petri.Marking) int {
	sum := 0
	for p, w := range y {
		if m.Has(petri.Place(p)) {
			sum += w
		}
	}
	return sum
}

// ProveSafe attempts a structural safeness proof: every place must be
// covered by a P-invariant y with y(p) ≥ 1 and yᵀm₀ = 1 (the invariant's
// token weight is conserved at 1, so p can never hold 2 tokens). It
// returns the uncovered places (empty means the net is provably safe).
func ProveSafe(n *petri.Net, invariants [][]int) []petri.Place {
	m0 := n.InitialMarking()
	covered := make([]bool, n.NumPlaces())
	for _, y := range invariants {
		if Weight(y, m0) != 1 {
			continue
		}
		for p, w := range y {
			if w >= 1 {
				covered[p] = true
			}
		}
	}
	var out []petri.Place
	for p, ok := range covered {
		if !ok {
			out = append(out, petri.Place(p))
		}
	}
	return out
}

// MaxSiphonWithin returns the largest siphon contained in the given place
// set: a set S with •S ⊆ S• (every transition putting tokens into S also
// takes a token from S). Once a siphon is empty it stays empty forever.
// The empty set is (trivially) returned when no nonempty siphon exists.
func MaxSiphonWithin(n *petri.Net, candidate []petri.Place) []petri.Place {
	in := make([]bool, n.NumPlaces())
	for _, p := range candidate {
		in[p] = true
	}
	ShrinkToSiphon(in, n.PreT, n.Pre)
	out := make([]petri.Place, 0, len(candidate))
	for p, ok := range in {
		if ok {
			out = append(out, petri.Place(p))
		}
	}
	return out
}

// ShrinkToSiphon is the fixpoint under MaxSiphonWithin for a net given
// by its adjacency alone — producers(p) is •p, preset(t) is •t — so that
// the reduction pre-pass can run it on its working copy without
// assembling a petri.Net. in, indexed by place, holds the candidate set
// on entry and the largest siphon inside it on return.
func ShrinkToSiphon(in []bool, producers func(petri.Place) []petri.Trans, preset func(petri.Trans) []petri.Place) {
	for changed := true; changed; {
		changed = false
	places:
		for p, ok := range in {
			if !ok {
				continue
			}
			// p must go if some producer of p does not consume from S.
		producers:
			for _, t := range producers(petri.Place(p)) {
				for _, q := range preset(t) {
					if in[q] {
						continue producers
					}
				}
				in[p] = false
				changed = true
				continue places
			}
		}
	}
}

// MaxTrapWithin returns the largest trap contained in the set: S• ⊆ •S
// (every transition taking from S also puts back). A marked trap can never
// be emptied.
func MaxTrapWithin(n *petri.Net, candidate []petri.Place) []petri.Place {
	in := make(map[petri.Place]bool, len(candidate))
	for _, p := range candidate {
		in[p] = true
	}
	for changed := true; changed; {
		changed = false
		for p := range in {
			for _, t := range n.PostT(p) {
				produces := false
				for _, q := range n.Post(t) {
					if in[q] {
						produces = true
						break
					}
				}
				if !produces {
					delete(in, p)
					changed = true
					break
				}
			}
		}
	}
	out := make([]petri.Place, 0, len(in))
	for p := range in {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsSiphon checks •S ⊆ S• for a nonempty set.
func IsSiphon(n *petri.Net, s []petri.Place) bool {
	if len(s) == 0 {
		return false
	}
	return len(MaxSiphonWithin(n, s)) == len(s)
}

// IsTrap checks S• ⊆ •S for a nonempty set.
func IsTrap(n *petri.Net, s []petri.Place) bool {
	if len(s) == 0 {
		return false
	}
	return len(MaxTrapWithin(n, s)) == len(s)
}

// DeadlockSiphon explains a dead marking structurally: the unmarked places
// of any deadlock form a siphon (every transition has an unmarked input
// place, and that input's producers all need tokens from unmarked places
// too). It returns the maximal empty siphon of the witness.
func DeadlockSiphon(n *petri.Net, dead petri.Marking) []petri.Place {
	var unmarked []petri.Place
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		if !dead.Has(p) {
			unmarked = append(unmarked, p)
		}
	}
	return MaxSiphonWithin(n, unmarked)
}
