// Package petri implements safe (1-bounded) place/transition Petri nets:
// the structure ⟨P, T, F, m₀⟩ of Definition 2.1 of the paper, the classical
// enabling and firing rules (Definitions 2.3 and 2.4), and the structural
// conflict relation and maximal conflict sets (Definition 2.2) on which the
// generalized partial-order analysis is built.
//
// Nets are constructed with a Builder (or, from lists already known to be
// valid, with Assemble) and are immutable afterwards, so a *Net may be
// shared freely between concurrent analyses.
package petri

import (
	"fmt"
	"slices"
)

// Place identifies a place of a net by its dense index.
type Place int32

// Trans identifies a transition of a net by its dense index.
type Trans int32

// Net is an immutable safe Petri net ⟨P, T, F, m₀⟩.
type Net struct {
	name string

	placeNames []string
	transNames []string

	pre  [][]Place // pre[t]:  •t, sorted
	post [][]Place // post[t]: t•, sorted

	preT  [][]Trans // preT[p]:  •p (transitions producing into p), sorted
	postT [][]Trans // postT[p]: p• (transitions consuming from p), sorted

	initial []Place // initially marked places, sorted

	clusters  [][]Trans // connected components of the conflict graph
	clusterOf []int32   // transition -> cluster index
	markWords int       // words per Marking
	preMask   []uint64  // preMask[t*markWords:][:markWords]: •t as marking words
	postMask  []uint64  // postMask likewise for t•
	initMark  Marking

	// byPlace[byPlaceAt[p]:byPlaceAt[p+1]] lists, in increasing order,
	// the transitions indexed under p: each transition once, under the
	// input place with the fewest consumers (the smallest such place on a
	// tie; Build refuses empty presets). A transition enabled in m is
	// listed under one of m's marked places, so AppendEnabled and
	// IsDeadlock test only those; indexed masks the places whose list is
	// not empty, so a marked place without one costs nothing.
	byPlaceAt []int32
	byPlace   []Trans
	indexed   Marking

	// conflictBits is a dense |T|×|T| adjacency bitset (conflictStride
	// words per transition) that serves Conflict() with one bit test; the
	// analysis engines probe the conflict relation O(|enabled|²) per
	// state. Built only while |T| ≤ conflictBitsMax keeps it within a few
	// MB; beyond that Conflict intersects the two presets.
	conflictBits   []uint64
	conflictStride int
}

// conflictBitsMax bounds the transition count for which the dense
// conflict bitset is materialized (memory is |T|²/8 bytes: 2 MB at the
// cap).
const conflictBitsMax = 4096

// Name returns the net's name.
func (n *Net) Name() string { return n.name }

// NumPlaces returns |P|.
func (n *Net) NumPlaces() int { return len(n.placeNames) }

// NumTrans returns |T|.
func (n *Net) NumTrans() int { return len(n.transNames) }

// Words returns the number of 64-bit words in a Marking of this net.
func (n *Net) Words() int { return n.markWords }

// PlaceName returns the name of p.
func (n *Net) PlaceName(p Place) string { return n.placeNames[p] }

// TransName returns the name of t.
func (n *Net) TransName(t Trans) string { return n.transNames[t] }

// Pre returns •t, the input places of t. The caller must not modify it.
func (n *Net) Pre(t Trans) []Place { return n.pre[t] }

// Post returns t•, the output places of t. The caller must not modify it.
func (n *Net) Post(t Trans) []Place { return n.post[t] }

// PreT returns •p, the transitions with an arc into p. Read-only.
func (n *Net) PreT(p Place) []Trans { return n.preT[p] }

// PostT returns p•, the transitions consuming from p. Read-only.
func (n *Net) PostT(p Place) []Trans { return n.postT[p] }

// InitialPlaces returns the initially marked places. Read-only.
func (n *Net) InitialPlaces() []Place { return n.initial }

// PlaceByName returns the place with the given name.
func (n *Net) PlaceByName(name string) (Place, bool) {
	for i, pn := range n.placeNames {
		if pn == name {
			return Place(i), true
		}
	}
	return -1, false
}

// TransByName returns the transition with the given name.
func (n *Net) TransByName(name string) (Trans, bool) {
	for i, tn := range n.transNames {
		if tn == name {
			return Trans(i), true
		}
	}
	return -1, false
}

// Conflict reports whether t and u share an input place (Definition 2.2).
// A transition is not considered in conflict with itself.
func (n *Net) Conflict(t, u Trans) bool {
	if n.conflictBits != nil {
		w := n.conflictBits[int(t)*n.conflictStride+int(u)>>6]
		return w&(1<<(uint(u)&63)) != 0
	}
	if t == u {
		return false
	}
	a, b := n.pre[t], n.pre[u]
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			return true
		}
	}
	return false
}

// ConflictSet returns the transitions in structural conflict with t,
// excluding t itself, in increasing order.
func (n *Net) ConflictSet(t Trans) []Trans {
	var out []Trans
	for u := Trans(0); int(u) < n.NumTrans(); u++ {
		if n.Conflict(t, u) {
			out = append(out, u)
		}
	}
	return out
}

// Clusters returns the maximal conflict sets of the net: the connected
// components of the conflict graph, each sorted, components ordered by
// their smallest member. Conflict-free transitions form singleton clusters.
func (n *Net) Clusters() [][]Trans { return n.clusters }

// ClusterOf returns the index into Clusters() of the maximal conflict set
// containing t.
func (n *Net) ClusterOf(t Trans) int { return int(n.clusterOf[t]) }

// Builder accumulates places, transitions, arcs and the initial marking,
// then produces an immutable Net. Errors (duplicate names, duplicate arcs,
// dangling references) are accumulated and reported by Build.
type Builder struct {
	name    string
	places  []string
	trans   []string
	pre     [][]Place
	post    [][]Place
	initial []bool // by place
	errs    []error
}

// NewBuilder returns a Builder for a net with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Place adds a place with the given name and returns its identifier.
func (b *Builder) Place(name string) Place {
	p := Place(len(b.places))
	b.places = append(b.places, name)
	b.initial = append(b.initial, false)
	return p
}

// Places adds one place per name and returns their identifiers in order.
func (b *Builder) Places(names ...string) []Place {
	out := make([]Place, len(names))
	for i, nm := range names {
		out[i] = b.Place(nm)
	}
	return out
}

// Trans adds a transition with the given name and returns its identifier.
func (b *Builder) Trans(name string) Trans {
	t := Trans(len(b.trans))
	b.trans = append(b.trans, name)
	b.pre = append(b.pre, nil)
	b.post = append(b.post, nil)
	return t
}

// In adds arcs from each place to the transition (p ∈ •t).
func (b *Builder) In(t Trans, ps ...Place) {
	if int(t) >= len(b.trans) || t < 0 {
		b.errf("petri: In: unknown transition %d", t)
		return
	}
	for _, p := range ps {
		if int(p) >= len(b.places) || p < 0 {
			b.errf("petri: In: unknown place %d", p)
			continue
		}
		if slices.Contains(b.pre[t], p) {
			b.errf("petri: duplicate arc %s -> %s", b.places[p], b.trans[t])
			continue
		}
		b.pre[t] = append(b.pre[t], p)
	}
}

// Out adds arcs from the transition to each place (p ∈ t•).
func (b *Builder) Out(t Trans, ps ...Place) {
	if int(t) >= len(b.trans) || t < 0 {
		b.errf("petri: Out: unknown transition %d", t)
		return
	}
	for _, p := range ps {
		if int(p) >= len(b.places) || p < 0 {
			b.errf("petri: Out: unknown place %d", p)
			continue
		}
		if slices.Contains(b.post[t], p) {
			b.errf("petri: duplicate arc %s -> %s", b.trans[t], b.places[p])
			continue
		}
		b.post[t] = append(b.post[t], p)
	}
}

// TransArcs adds a transition together with its input and output arcs and
// returns its identifier. It is the common idiom for model generators.
func (b *Builder) TransArcs(name string, in []Place, out []Place) Trans {
	t := b.Trans(name)
	b.In(t, in...)
	b.Out(t, out...)
	return t
}

// Mark puts the initial token on each given place.
func (b *Builder) Mark(ps ...Place) {
	for _, p := range ps {
		if int(p) >= len(b.places) || p < 0 {
			b.errf("petri: Mark: unknown place %d", p)
			continue
		}
		if b.initial[p] {
			b.errf("petri: place %s marked twice", b.places[p])
			continue
		}
		b.initial[p] = true
	}
}

// Build finalizes the net. It returns an error if two places or two
// transitions share a name, if any construction step was invalid, or if a
// transition has an empty preset (such a transition would be unboundedly
// enabled, which contradicts the safe-net assumption).
func (b *Builder) Build() (*Net, error) {
	errs := append(duplicateNames("place", b.places), duplicateNames("transition", b.trans)...)
	errs = append(errs, b.errs...)
	for t, pre := range b.pre {
		if len(pre) == 0 {
			errs = append(errs, fmt.Errorf("petri: transition %s has no input places", b.trans[t]))
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("petri: building %q: %w", b.name, joinErrors(errs))
	}
	var initial []Place
	for p, marked := range b.initial {
		if marked {
			initial = append(initial, Place(p))
		}
	}
	return Assemble(b.name, b.places, b.trans, b.pre, b.post, initial), nil
}

// MustBuild is Build that panics on error; for tests and model generators
// whose construction is statically correct.
func (b *Builder) MustBuild() *Net {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// duplicateNames reports each name that an earlier one of names already
// took, in index order.
func duplicateNames(kind string, names []string) []error {
	var errs []error
	seen := make(map[string]struct{}, len(names))
	for _, nm := range names {
		if _, dup := seen[nm]; dup {
			errs = append(errs, fmt.Errorf("petri: duplicate %s name %q", kind, nm))
		}
		seen[nm] = struct{}{}
	}
	return errs
}

func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:] {
		msg += "; " + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

// Assemble returns the net with the given place and transition names,
// presets pre[t], postsets post[t] and initially marked places. It is the
// one constructor of a Net: Build calls it once its checks pass, and a
// caller holding the lists of a net derived from a valid one (the
// reduction pre-pass) calls it directly. Assemble itself checks nothing:
// names must be distinct, every place in range and in a list at most
// once, and every preset non-empty. The net keeps places and trans, which
// the caller must not modify afterwards, and copies the lists, sorted.
//
// Each kind of list shares one backing array (pre, post and the initial
// places one []Place; preT, postT, the enabled index and the clusters one
// []Trans; the markings, masks and conflict bits one []uint64), so a net
// costs a constant number of allocations whatever its size.
func Assemble(name string, places, trans []string, pre, post [][]Place, initial []Place) *Net {
	nP, nT := len(places), len(trans)
	arcs := 0
	for t := range nT {
		arcs += len(pre[t]) + len(post[t])
	}
	n := &Net{
		name:       name,
		placeNames: places[:nP:nP],
		transNames: trans[:nT:nT],
		markWords:  (nP + 63) / 64,
	}
	placeArena := make([]Place, arcs+len(initial))
	placeLists := make([][]Place, 2*nT)
	n.pre, n.post = placeLists[:nT:nT], placeLists[nT:]
	for t := range nT {
		n.pre[t] = sortedCopy(carve(&placeArena, len(pre[t])), pre[t])
		n.post[t] = sortedCopy(carve(&placeArena, len(post[t])), post[t])
	}
	n.initial = sortedCopy(carve(&placeArena, len(initial)), initial)

	// scratch holds Assemble's own counts: producers and consumers by
	// place, then (buildIndex, buildConflicts) one int32 per transition
	// four times over.
	scratch := make([]int32, 2*nP+4*nT)
	producers, consumers := carve(&scratch, nP), carve(&scratch, nP)
	for t := range nT {
		for _, p := range n.pre[t] {
			consumers[p]++
		}
		for _, p := range n.post[t] {
			producers[p]++
		}
	}
	transArena := make([]Trans, arcs+2*nT)
	transLists := make([][]Trans, 2*nP)
	n.preT, n.postT = transLists[:nP:nP], transLists[nP:]
	for p := range nP {
		n.preT[p] = carve(&transArena, int(producers[p]))[:0]
		n.postT[p] = carve(&transArena, int(consumers[p]))[:0]
	}
	for t := range nT { // appends within capacity, in transition order
		for _, p := range n.pre[t] {
			n.postT[p] = append(n.postT[p], Trans(t))
		}
		for _, p := range n.post[t] {
			n.preT[p] = append(n.preT[p], Trans(t))
		}
	}

	w, stride := n.markWords, 0
	if nT > 0 && nT <= conflictBitsMax {
		stride = (nT + 63) / 64
	}
	words := make([]uint64, (2+2*nT)*w+nT*stride)
	n.initMark, n.indexed = carve(&words, w), carve(&words, w)
	n.preMask, n.postMask = carve(&words, nT*w), carve(&words, nT*w)
	if stride > 0 {
		n.conflictStride, n.conflictBits = stride, carve(&words, nT*stride)
	}
	for _, p := range n.initial {
		n.initMark.Set(p)
	}
	for t := range nT {
		pre, post := n.masks(Trans(t))
		for _, p := range n.pre[t] {
			Marking(pre).Set(p)
		}
		for _, p := range n.post[t] {
			Marking(post).Set(p)
		}
	}

	ints := make([]int32, nP+1+nT)
	n.byPlaceAt, n.clusterOf = carve(&ints, nP+1), carve(&ints, nT)
	n.byPlace = carve(&transArena, nT)
	n.buildIndex(carve(&scratch, nT))
	n.buildConflicts(&transArena, scratch)
	return n
}

// carve cuts the next n elements off *arena and returns them as a list
// whose capacity is its length, so that an append to it copies the list
// instead of writing into the next one.
func carve[E any](arena *[]E, n int) []E {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

func sortedCopy(dst, src []Place) []Place {
	copy(dst, src)
	slices.Sort(dst)
	return dst
}

// buildIndex fills byPlaceAt, byPlace and indexed, with key (one entry
// per transition) as scratch. A place with few consumers is rarely a
// shared resource that stays marked (a fork, a mutex, the safety
// monitor's run place, which is in every preset), so its list is seldom
// walked in vain. It also keeps the candidates of Table 1's nets in or
// near transition order.
func (n *Net) buildIndex(key []int32) {
	for t, pre := range n.pre {
		k := pre[0]
		for _, p := range pre[1:] {
			if len(n.postT[p]) < len(n.postT[k]) {
				k = p
			}
		}
		key[t] = int32(k)
		n.byPlaceAt[k]++
		n.indexed.Set(k)
	}
	for p := range n.NumPlaces() {
		n.byPlaceAt[p+1] += n.byPlaceAt[p] // now the end of p's list
	}
	for t := len(key) - 1; t >= 0; t-- { // each list filled from its end
		n.byPlaceAt[key[t]]--
		n.byPlace[n.byPlaceAt[key[t]]] = Trans(t)
	}
}

// buildConflicts computes the conflict bitset and the maximal conflict
// sets, both straight from the consumer lists: t and u conflict iff they
// share a place p with t, u ∈ p•, and a cluster is a component of the
// union of the p•. The clusters are carved from *arena; scratch holds
// three int32 per transition.
func (n *Net) buildConflicts(arena *[]Trans, scratch []int32) {
	nt := n.NumTrans()
	if n.conflictBits != nil {
		for _, out := range n.postT {
			for _, t := range out {
				row := n.conflictBits[int(t)*n.conflictStride:]
				for _, u := range out {
					if u != t {
						row[u>>6] |= 1 << (uint(u) & 63)
					}
				}
			}
		}
	}
	// Union-find over transitions to extract components.
	parent, index, size := carve(&scratch, nt), carve(&scratch, nt), carve(&scratch, nt)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, out := range n.postT {
		for _, u := range out[min(1, len(out)):] {
			if ra, rb := find(int32(out[0])), find(int32(u)); ra != rb {
				parent[ra] = rb
			}
		}
	}
	// Transitions ascend, so each component is met at its smallest
	// member first (index: root -> cluster index + 1) and filled in
	// increasing order.
	clusters := 0
	for t := range nt {
		r := find(int32(t))
		if index[r] == 0 {
			clusters++
			index[r] = int32(clusters)
		}
		n.clusterOf[t] = index[r] - 1
		size[n.clusterOf[t]]++
	}
	n.clusters = make([][]Trans, clusters)
	for c := range n.clusters {
		n.clusters[c] = carve(arena, int(size[c]))[:0]
	}
	for t, c := range n.clusterOf {
		n.clusters[c] = append(n.clusters[c], Trans(t))
	}
}
