package core

import (
	"repro/internal/petri"
	"repro/internal/tset"
)

// State is a Generalized Petri Net state ⟨m, r⟩: per-place families of
// transition sets plus the family of valid transition sets (Definition 3.1).
type State[F any] struct {
	// M[p] is the marking family of place p.
	M []F
	// R is the family of valid transition sets.
	R F
}

// key returns a map key unique per state value: the concatenation of the
// algebra's self-delimiting binary keys of every place family plus r,
// assembled in the engine's reusable buffer (one string allocation per
// interned state).
func (e *Engine[F]) key(s *State[F]) string {
	b := e.keyBuf[:0]
	for _, f := range s.M {
		b = e.Alg.AppendKey(b, f)
	}
	b = e.Alg.AppendKey(b, s.R)
	e.keyBuf = b
	return string(b)
}

// InitialState builds ⟨m₀ᴳ, r₀⟩ for the engine's net (Section 3.3):
// r₀ is the family of maximal conflict-free transition sets, every
// initially marked place carries r₀, and every other place is empty.
func (e *Engine[F]) InitialState() *State[F] {
	n := e.Net
	r0 := e.Alg.MaximalConflictFree(func(i, j int) bool {
		return n.Conflict(petri.Trans(i), petri.Trans(j))
	})
	s := &State[F]{M: make([]F, n.NumPlaces()), R: r0}
	empty := e.Alg.Empty()
	for p := 0; p < n.NumPlaces(); p++ {
		s.M[p] = empty
	}
	for _, p := range n.InitialPlaces() {
		s.M[p] = r0
	}
	return s
}

// SEnabled computes s_enabled(t, ⟨m,r⟩) = ∩_{p∈•t} m(p) ∩ r
// (Definition 3.2). Every state the engine builds has m(p) ⊆ r for all p
// (InitialState, SingleFire and multiFire each keep it; DESIGN.md D2a,
// TestMarkingsWithinValidSets), so the final ∩ r is the identity and is
// not computed.
func (e *Engine[F]) SEnabled(s *State[F], t petri.Trans) F {
	pre := e.Net.Pre(t)
	acc := s.M[pre[0]]
	for _, p := range pre[1:] {
		if e.Alg.IsEmpty(acc) {
			return acc
		}
		acc = e.Alg.Intersect(acc, s.M[p])
	}
	return acc
}

// sEnabledAll fills the engine's per-state enabled-family cache:
// sEnBuf[t] = s_enabled(t, s) for every transition. Computed once per
// state and threaded through deadSets, successors, tryMultiple and
// multiFire, which previously each recomputed it from scratch.
func (e *Engine[F]) sEnabledAll(s *State[F]) []F {
	buf := e.sEnBuf
	for t := range buf {
		buf[t] = e.SEnabled(s, petri.Trans(t))
	}
	return buf
}

// MEnabled computes m_enabled(t, ⟨m,r⟩) = {v ∈ ∩_{p∈•t} m(p) | t ∈ v}
// (Definition 3.5): the t-containing part of s_enabled(t).
func (e *Engine[F]) MEnabled(s *State[F], t petri.Trans) F {
	return e.Alg.OnSet(e.SEnabled(s, t), int(t))
}

// SingleFire applies the single firing rule (Definition 3.3) for a
// transition with s_enabled(t,s) = en ≠ ∅: en is removed from the marking
// of every p ∈ •t \ t•, and added to every p ∈ t• \ •t. r is unchanged.
// The •t \ t• and t• \ •t place slices are precomputed per transition, so
// a firing allocates nothing beyond the successor state itself.
func (e *Engine[F]) SingleFire(s *State[F], t petri.Trans, en F) *State[F] {
	e.ensureInit()
	next := &State[F]{M: append([]F(nil), s.M...), R: s.R}
	for _, p := range e.preOnly[t] {
		next.M[p] = e.Alg.Diff(next.M[p], en)
	}
	for _, p := range e.postOnly[t] {
		next.M[p] = e.Alg.Union(next.M[p], en)
	}
	return next
}

// MultiFire applies the multiple firing rule (Definition 3.6) for a set T′
// of transitions that are all multiple enabled. mEn[t] must hold
// m_enabled(t, s) for each t ∈ T′. The new valid sets are
//
//	r′ = ∪_{t∉T′} s_enabled(t,s) ∪ ∪_{t∈T′} m_enabled(t,s)
//
// and every place family is conditioned by ∩ r′, which is what prunes
// "extended conflicts" such as {A,D} in the paper's Figure 7.
//
// This is the allocating convenience form; the analysis hot path runs
// multiFire against the engine's per-state enabled-family cache.
func (e *Engine[F]) MultiFire(s *State[F], tPrime []petri.Trans, mEn map[petri.Trans]F) *State[F] {
	e.ensureInit()
	mEnV := make([]F, e.Net.NumTrans())
	for t, f := range mEn {
		mEnV[t] = f
	}
	return e.multiFire(s, tPrime, mEnV, e.sEnabledAll(s))
}

// multiFire is MultiFire against the per-state caches: mEn and sEn are
// transition-indexed vectors (mEn[t] meaningful for t ∈ T′ only, sEn the
// state's enabled-family cache). T′ membership runs on the engine's
// scratch bitset; all scratch is left cleared on return.
func (e *Engine[F]) multiFire(s *State[F], tPrime []petri.Trans, mEn []F, sEn []F) *State[F] {
	n := e.Net
	nt := n.NumTrans()
	inT := e.inT
	for _, t := range tPrime {
		inT[t] = true
	}

	e.enter("multi_r")
	rNew := e.Alg.Empty()
	for t := 0; t < nt; t++ {
		if inT[t] {
			rNew = e.Alg.Union(rNew, mEn[t])
		} else {
			rNew = e.Alg.Union(rNew, sEn[t])
		}
	}

	// removed[p] = ∪_{t ∈ T′ ∩ p•} m_enabled(t,s)
	// added[p]   = ∪_{t ∈ T′ ∩ •p} m_enabled(t,s)
	// Both are ⊆ r, as is m(p): when the firing leaves r as it was, the
	// conditioning by ∩ r′ has nothing to prune.
	sameR := e.Alg.Equal(rNew, s.R)
	next := &State[F]{M: make([]F, n.NumPlaces()), R: rNew}
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		e.enter("multi_place")
		f := s.M[p]
		for _, t := range n.PostT(p) { // t consumes from p
			if inT[t] {
				f = e.Alg.Diff(f, mEn[t])
			}
		}
		for _, t := range n.PreT(p) { // t produces into p
			if inT[t] {
				f = e.Alg.Union(f, mEn[t])
			}
		}
		if !sameR {
			e.enter("multi_restrict")
			f = e.Alg.Intersect(f, rNew)
		}
		next.M[p] = f
	}
	for _, t := range tPrime {
		inT[t] = false
	}
	return next
}

// DeadSets returns r \ ∪_t s_enabled(t, s): the valid sets (histories) in
// which no transition is enabled. The state exhibits a deadlock
// possibility iff this family is non-empty (Section 3.3).
func (e *Engine[F]) DeadSets(s *State[F]) F {
	e.ensureInit()
	return e.deadSets(s, e.sEnabledAll(s))
}

// deadSets is DeadSets against the state's enabled-family cache.
func (e *Engine[F]) deadSets(s *State[F], sEn []F) F {
	alive := e.Alg.Empty()
	for _, en := range sEn {
		alive = e.Alg.Union(alive, en)
	}
	return e.Alg.Diff(s.R, alive)
}

// Mapping implements Definition 3.4: the set of classical safe-net
// markings represented by the GPN state, one per valid set v ∈ r
// (markings may coincide). At most limit markings are produced
// (all if limit <= 0). Mapping of a valid set v is {p | v ∈ m(p)}.
func (e *Engine[F]) Mapping(s *State[F], limit int) []petri.Marking {
	sets := e.Alg.Enumerate(s.R, limit)
	seen := make(map[string]bool)
	var out []petri.Marking
	for _, v := range sets {
		m := e.MarkingOf(s, v)
		k := m.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, m)
		}
	}
	return out
}

// MarkingOf returns the classical marking {p | v ∈ m(p)} selected by a
// single valid set v.
func (e *Engine[F]) MarkingOf(s *State[F], v tset.TSet) petri.Marking {
	m := e.Net.EmptyMarking()
	for p := petri.Place(0); int(p) < e.Net.NumPlaces(); p++ {
		if e.Alg.Contains(s.M[p], v) {
			m.Set(p)
		}
	}
	return m
}
