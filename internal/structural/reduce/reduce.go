// Package reduce implements a sound, ordinary-net-preserving structural
// reduction pipeline applied before state-space exploration, in the
// spirit of Berthelot's agglomerations and the polyhedral reductions of
// Amat et al. (PAPERS.md): the net is shrunk by rules that provably
// preserve the reachable-marking projection on kept places and the exact
// set of dead markings, so any engine's verdict — and its witness, once
// mapped back — is identical to what the unreduced run would produce.
//
// Three rule families run to a fixpoint:
//
//   - Dead-transition pruning. The maximal siphon S inside the initially
//     unmarked places can never acquire a token (•S ⊆ S•), so every
//     transition consuming from S is dead and is removed, and the places
//     of S (constant 0) with it.
//   - Redundant-place removal. A place whose incidence row is zero and
//     which starts marked is constant 1 (every consumer self-loops on
//     it); a sink place (p• = ∅) covered by a P-invariant is implied by
//     the kept places. Both are removed and reconstructed arithmetically.
//   - Post-agglomeration. A series chain u → p → t with p• = {t},
//     •t = {p}, p ∉ t• and p initially unmarked is collapsed: every
//     producer u fires u;t atomically (its postset becomes (u•\{p}) ∪ t•)
//     and p, t disappear. Because t is the sole consumer of p and p its
//     only input, firing t eagerly commutes with every other transition,
//     so Reach(reduced) is exactly the p-empty slice of Reach(original)
//     and the dead markings (all of which have p empty — t would be
//     enabled otherwise) coincide.
//
// Run returns a Certificate that carries the reduced net and the
// mapping back: PlaceIndex translates original places into the reduced
// net, ExpandMarking reconstructs a full original marking (witnesses,
// dead markings) from a reduced one by replaying the removals in reverse.
//
// The rules do not build nets. They edit one working copy of the
// adjacency lists, kept in the input net's indices: Run copies the input's
// lists once into arenas it owns and edits them in place, so the input
// net is never written. A petri.Net — which stays immutable — is
// assembled once (petri.Assemble, the constructor Build ends in), from
// what is left when no rule applies any more (and once more per
// implicit-place attempt, which needs the invariants of the net as it
// then stands). A run therefore makes the same few allocations however
// many rules apply, and when none does it builds nothing.
//
// Like the engines, the pipeline assumes its input net is safe; protected
// places (a safety check's bad places) are never removed, so property
// places survive into the reduced net.
package reduce

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/structural"
)

// Rule names, as counted by Certificate.Rules and the reduce.rule_*
// metrics.
const (
	RuleDeadTransition    = "dead_transition"
	RuleEmptySiphonPlace  = "empty_siphon_place"
	RuleConstantPlace     = "constant_place"
	RuleImplicitPlace     = "implicit_place"
	RulePostAgglomeration = "post_agglomeration"
)

var ruleNames = [...]string{
	deadTransition:    RuleDeadTransition,
	emptySiphonPlace:  RuleEmptySiphonPlace,
	constantPlace:     RuleConstantPlace,
	implicitPlace:     RuleImplicitPlace,
	postAgglomeration: RulePostAgglomeration,
}

// The rules' indices into ruleNames and Certificate.rules.
const (
	deadTransition = iota
	emptySiphonPlace
	constantPlace
	implicitPlace
	postAgglomeration
)

// Options configures a reduction.
type Options struct {
	// Protect lists places that must survive into the reduced net (a
	// safety check's bad places). Protected places are exempt from every
	// place-removal rule; transitions around them may still be pruned
	// when provably dead.
	Protect []petri.Place
	// MaxInvariantRows caps the Farkas computation behind the
	// implicit-place rule (0 = the structural package default). When the
	// cap is exceeded the rule is skipped, never failed.
	MaxInvariantRows int
	// MaxRounds bounds the fixpoint iteration (0 = 64, far beyond any
	// real net: every round removes at least one node).
	MaxRounds int
	// Metrics, if non-nil, receives the reduce.* counters and the
	// reduce.prepass span (see OBSERVABILITY.md). Nil costs nothing.
	Metrics *obs.Registry
}

// reconKind says how a removed place's marking is reconstructed.
type reconKind uint8

const (
	reconConst     reconKind = iota // marking is the constant value
	reconInvariant                  // marking implied by an invariant
)

// recon is one removed place's reconstruction record, in original-net
// indices. Records are replayed newest-first: a record may reference
// places removed after it (alive when it was recorded), which by then
// have already been reconstructed.
type recon struct {
	place petri.Place
	kind  reconKind
	value int // reconConst: the constant marking (0 or 1)
	// reconInvariant: m(place) = (target − Σ coeff(q)·m(q)) / selfW.
	coeff  []placeWeight
	target int
	selfW  int
}

type placeWeight struct {
	place  petri.Place
	weight int
}

// Certificate is the outcome of a reduction: the reduced net plus
// everything needed to map verdicts, witnesses and dead markings back to
// the original net.
type Certificate struct {
	orig         *petri.Net
	reduced      *petri.Net
	toRed        []petri.Place // original place -> reduced place, -1 if removed
	recons       []recon       // chronological removal order
	rules        [len(ruleNames)]int
	rounds       int
	transRemoved int
}

// Net returns the reduced net (the original net when nothing applied).
func (c *Certificate) Net() *petri.Net { return c.reduced }

// Changed reports whether any rule applied.
func (c *Certificate) Changed() bool { return c.reduced != c.orig }

// Rounds returns the number of fixpoint rounds run.
func (c *Certificate) Rounds() int { return c.rounds }

// PlacesRemoved returns how many places the reduction removed.
func (c *Certificate) PlacesRemoved() int { return len(c.recons) }

// TransRemoved returns how many transitions the reduction removed.
func (c *Certificate) TransRemoved() int { return c.transRemoved }

// Rules returns the per-rule application counts (keys are the Rule*
// constants; rules that never fired are absent).
func (c *Certificate) Rules() map[string]int {
	out := make(map[string]int)
	for i, n := range c.rules {
		if n > 0 {
			out[ruleNames[i]] = n
		}
	}
	return out
}

// PlaceIndex maps an original place into the reduced net. ok is false
// when the place was removed.
func (c *Certificate) PlaceIndex(p petri.Place) (petri.Place, bool) {
	rp := c.toRed[p]
	return rp, rp >= 0
}

// MapPlaces maps a slice of original places into the reduced net; it
// fails if any of them was removed (protect them via Options.Protect).
func (c *Certificate) MapPlaces(ps []petri.Place) ([]petri.Place, error) {
	out := make([]petri.Place, len(ps))
	for i, p := range ps {
		rp, ok := c.PlaceIndex(p)
		if !ok {
			return nil, fmt.Errorf("reduce: place %s was removed by the reduction", c.orig.PlaceName(p))
		}
		out[i] = rp
	}
	return out, nil
}

// ExpandMarking maps a marking of the reduced net back to the original
// net: kept places copy their bit, removed places are reconstructed by
// replaying the removal records newest-first. nil maps to nil.
func (c *Certificate) ExpandMarking(m petri.Marking) petri.Marking {
	if m == nil {
		return nil
	}
	out := c.orig.EmptyMarking()
	for op, rp := range c.toRed {
		if rp >= 0 && m.Has(rp) {
			out.Set(petri.Place(op))
		}
	}
	for i := len(c.recons) - 1; i >= 0; i-- {
		r := c.recons[i]
		v := r.value
		if r.kind == reconInvariant {
			v = r.target
			for _, cw := range r.coeff {
				if out.Has(cw.place) {
					v -= cw.weight
				}
			}
			v /= r.selfW
		}
		if v != 0 {
			out.Set(r.place)
		}
	}
	return out
}

// reducer is the mutable fixpoint state: one working copy of the net, in
// the input net's indices, that the rules edit in place. pre/post and
// preT/postT mirror petri.Net's adjacency (sorted, and holding alive
// nodes only); a removed place or transition keeps its index and loses
// its arcs. newReducer copies the input's lists into two arenas of the
// reducer's own, each list with spare room behind it, so with and without
// edit a list where it lies and never write into the input net (spare
// says where a list that outgrows its room goes). Nothing here is a
// petri.Net: one is assembled by materialize only when somebody needs
// one — the Farkas call behind the implicit-place rule, and the
// certificate at the end.
type reducer struct {
	orig *petri.Net
	opts Options
	// By place: protect, marked (the initial marking), aliveP and
	// pruneDead's siphon scratch; aliveT by transition. One allocation.
	protect, marked, aliveP, siphon []bool
	aliveT                          []bool

	pre, post   [][]petri.Place // by transition
	preT, postT [][]petri.Trans // by place
	// The unused rest of the two arenas, where with moves a list that
	// has outgrown its room.
	placeRoom []petri.Place
	transRoom []petri.Trans

	// cur is a net equal to the working copy, or nil once an edit has
	// outdated it; curOrig maps its places to the input net's and toCur
	// back (-1: removed). It starts as the input net itself, so a run in
	// which no rule applies builds nothing.
	cur     *petri.Net
	curOrig []petri.Place
	toCur   []petri.Place
	builds  int // nets materialize has assembled

	cert *Certificate
}

// spare is the room newReducer leaves behind each list. An agglomeration
// grows a producer's postset by |t•| − 1 and an output place's producers
// by |•p| − 1, so most lists stay within it; each arena is twice the size
// of its lists with their spare, and a list that grows past its spare
// moves to the second half, with room to double. Only a run that spends
// the second half too makes an allocation per move; Table 1's nets never
// come near it.
const spare = 2

func newReducer(n *petri.Net, o Options) *reducer {
	nP, nT := n.NumPlaces(), n.NumTrans()
	flags := make([]bool, 4*nP+nT)
	index := make([]petri.Place, 2*nP)
	r := &reducer{
		orig:    n,
		opts:    o,
		protect: flags[:nP:nP],
		marked:  flags[nP : 2*nP : 2*nP],
		aliveP:  flags[2*nP : 3*nP : 3*nP],
		siphon:  flags[3*nP : 4*nP : 4*nP],
		aliveT:  flags[4*nP:],
		cur:     n,
		curOrig: index[:nP:nP],
		toCur:   index[nP:],
		cert:    &Certificate{orig: n, reduced: n},
	}
	for _, p := range o.Protect {
		if p >= 0 && int(p) < nP { // an unknown place protects nothing
			r.protect[p] = true
		}
	}
	for _, p := range n.InitialPlaces() {
		r.marked[p] = true
	}
	arcs := 0
	for t := petri.Trans(0); int(t) < nT; t++ {
		arcs += len(n.Pre(t)) + len(n.Post(t))
	}
	placeLists := make([][]petri.Place, 2*nT)
	r.placeRoom = make([]petri.Place, 2*(arcs+2*nT*spare))
	r.pre, r.post = placeLists[:nT:nT], placeLists[nT:]
	for t := petri.Trans(0); int(t) < nT; t++ {
		r.aliveT[t] = true
		r.pre[t], r.post[t] = owned(&r.placeRoom, n.Pre(t)), owned(&r.placeRoom, n.Post(t))
	}
	transLists := make([][]petri.Trans, 2*nP)
	r.transRoom = make([]petri.Trans, 2*(arcs+2*nP*spare))
	r.preT, r.postT = transLists[:nP:nP], transLists[nP:]
	for p := petri.Place(0); int(p) < nP; p++ {
		r.aliveP[p] = true
		r.preT[p], r.postT[p] = owned(&r.transRoom, n.PreT(p)), owned(&r.transRoom, n.PostT(p))
		r.curOrig[p], r.toCur[p] = p, p
	}
	return r
}

// owned copies list to the front of *arena and cuts it off with spare
// room behind it.
func owned[E any](arena *[]E, list []E) []E {
	n := len(list)
	out := (*arena)[: n : n+spare]
	copy(out, list)
	*arena = (*arena)[n+spare:]
	return out
}

// without removes v from the list s, in place.
func without[E comparable](s []E, v E) []E {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// with inserts v into the sorted list s, in place while s has room; added
// reports whether v was new. A full list first moves to *room, with room
// to double, while *room lasts; after that slices.Insert allocates.
func with[E cmp.Ordered](s []E, v E, room *[]E) (out []E, added bool) {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s, false
	}
	if n := 2*len(s) + 1; len(s) == cap(s) && n <= len(*room) {
		moved := (*room)[:len(s):n]
		copy(moved, s)
		*room = (*room)[n:]
		s = moved
	}
	return slices.Insert(s, i, v), true
}

// Run applies the reduction rules to a fixpoint and returns the
// certificate. The pipeline is deterministic: identical inputs yield
// identical reduced nets, which is what lets reduced runs share content-
// addressed run identities. The order of application is therefore part of
// the contract (TestReducedNetGolden): each rule fires on the first alive
// place, in index order, that matches, and scans again from the start.
func Run(n *petri.Net, o Options) (*Certificate, error) {
	sp := o.Metrics.StartSpan("reduce.prepass")
	defer sp.End()

	r := newReducer(n, o)
	if err := r.run(); err != nil {
		return nil, err
	}
	r.emitMetrics()
	return r.cert, nil
}

// run iterates the rules to the fixpoint and completes the certificate.
func (r *reducer) run() error {
	maxRounds := r.opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	rules := []func() (bool, error){r.dropConstantPlace, r.dropImplicitPlace, r.agglomerate}
	for round := 1; round <= maxRounds; round++ {
		changed, err := r.pruneDead()
		if err != nil {
			return err
		}
		for _, rule := range rules {
			for {
				ok, err := rule()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				changed = true
			}
		}
		r.cert.rounds = round
		if !changed {
			break
		}
	}

	r.materialize()
	r.cert.reduced, r.cert.toRed = r.cur, r.toCur
	return nil
}

func (r *reducer) emitMetrics() {
	reg := r.opts.Metrics
	if reg == nil {
		return
	}
	reg.Counter("reduce.rounds").Add(int64(r.cert.rounds))
	reg.Counter("reduce.places_removed").Add(int64(r.cert.PlacesRemoved()))
	reg.Counter("reduce.trans_removed").Add(int64(r.cert.transRemoved))
	total := int64(0)
	for i, name := range ruleNames {
		n := int64(r.cert.rules[i])
		reg.Counter("reduce.rule_" + name).Add(n)
		total += n
	}
	reg.Counter("reduce.applications").Add(total)
}

// materialize makes r.cur the working copy as a petri.Net, assembled
// from the lists as they stand: alive places and transitions in index
// order, so the compaction keeps relative order and every list stays
// sorted. The working copy holds a valid net's lists minus removed nodes,
// and dropPlace refuses an empty preset, so nothing is left to check.
func (r *reducer) materialize() {
	if r.cur != nil {
		return
	}
	n := r.orig
	r.curOrig = r.curOrig[:0]
	size := 0 // of the compacted lists and initial marking
	for p, alive := range r.aliveP {
		r.toCur[p] = -1
		if alive {
			r.toCur[p] = petri.Place(len(r.curOrig))
			r.curOrig = append(r.curOrig, petri.Place(p))
			if r.marked[p] {
				size++
			}
		}
	}
	nT := 0
	for t, alive := range r.aliveT {
		if alive {
			nT++
			size += len(r.pre[t]) + len(r.post[t])
		}
	}
	nP := len(r.curOrig)
	names := make([]string, 0, nP+nT)
	for _, p := range r.curOrig {
		names = append(names, n.PlaceName(p))
	}
	lists := make([][]petri.Place, 2*nT)
	pre, post := lists[:nT], lists[nT:]
	arena := make([]petri.Place, 0, size)
	compact := func(list []petri.Place) []petri.Place {
		start := len(arena)
		for _, p := range list {
			arena = append(arena, r.toCur[p])
		}
		return arena[start:]
	}
	for t, alive := range r.aliveT {
		if alive {
			i := len(names) - nP
			names = append(names, n.TransName(petri.Trans(t)))
			pre[i], post[i] = compact(r.pre[t]), compact(r.post[t])
		}
	}
	initial := arena[len(arena):]
	for cp, p := range r.curOrig {
		if r.marked[p] {
			initial = append(initial, petri.Place(cp))
		}
	}
	r.cur = petri.Assemble(n.Name(), names[:nP], names[nP:], pre, post, initial)
	r.builds++
}

// errEmptyPreset is the one way an edit can make the working copy stop
// being a net the Builder accepts. Every rule's guard rules it out; it is
// checked where the edit happens so that a rule which loses its guard
// fails by name instead of at the final build.
var errEmptyPreset = errors.New("reduce: removal would leave a kept transition without input places")

// dropPlace removes p and its arcs, recording how its marking is
// reconstructed. Transitions that die with it must be dropped first.
func (r *reducer) dropPlace(p petri.Place, rec recon) error {
	for _, t := range r.postT[p] {
		if len(r.pre[t]) == 1 {
			return fmt.Errorf("%w: place %s, transition %s",
				errEmptyPreset, r.orig.PlaceName(p), r.orig.TransName(t))
		}
	}
	for _, t := range r.postT[p] {
		r.pre[t] = without(r.pre[t], p)
	}
	for _, t := range r.preT[p] {
		r.post[t] = without(r.post[t], p)
	}
	r.preT[p], r.postT[p] = nil, nil
	r.aliveP[p] = false
	r.cur = nil
	rec.place = p
	if r.cert.recons == nil { // at most one record per place
		r.cert.recons = make([]recon, 0, len(r.aliveP))
	}
	r.cert.recons = append(r.cert.recons, rec)
	return nil
}

// dropTrans removes t and its arcs.
func (r *reducer) dropTrans(t petri.Trans) {
	for _, p := range r.pre[t] {
		r.postT[p] = without(r.postT[p], t)
	}
	for _, p := range r.post[t] {
		r.preT[p] = without(r.preT[p], t)
	}
	r.pre[t], r.post[t] = nil, nil
	r.aliveT[t] = false
	r.cur = nil
	r.cert.transRemoved++
}

// pruneDead removes every transition whose preset intersects the maximal
// provably-unmarkable siphon (the largest siphon among the initially
// unmarked places: •S ⊆ S• and S starts empty, so S stays empty and its
// consumers can never fire), along with the siphon's unprotected places
// (constant 0 — their producers, putting tokens into S, are themselves
// in S• and thus dead too, so no kept transition touches them).
func (r *reducer) pruneDead() (bool, error) {
	siphon := r.siphon
	for p, alive := range r.aliveP {
		siphon[p] = alive && !r.marked[p]
	}
	structural.ShrinkToSiphon(siphon,
		func(p petri.Place) []petri.Trans { return r.preT[p] },
		func(t petri.Trans) []petri.Place { return r.pre[t] })
	changed := false
	for p, in := range siphon {
		if !in {
			continue
		}
		for len(r.postT[p]) > 0 {
			r.dropTrans(r.postT[p][0])
			r.cert.rules[deadTransition]++
			changed = true
		}
	}
	for p, in := range siphon {
		if !in || r.protect[p] {
			continue
		}
		if err := r.dropPlace(petri.Place(p), recon{kind: reconConst, value: 0}); err != nil {
			return false, err
		}
		r.cert.rules[emptySiphonPlace]++
		changed = true
	}
	return changed, nil
}

// dropConstantPlace removes one place whose incidence row is zero (every
// consumer also produces it and vice versa — all arcs are self-loops)
// and which starts marked: its marking is the constant 1, so enabledness
// never hinges on it as long as each consumer keeps another input place
// to condition on. One place per call, so the ≥2-inputs guard is checked
// against the net the removal actually operates on.
func (r *reducer) dropConstantPlace() (bool, error) {
scan:
	for i, alive := range r.aliveP {
		p := petri.Place(i)
		if !alive || !r.marked[p] || r.protect[p] {
			continue
		}
		// Row zero: consumers and producers coincide as self-loops.
		for _, t := range r.postT[p] {
			if !slices.Contains(r.post[t], p) {
				continue scan
			}
			if len(r.pre[t]) < 2 {
				continue scan // would strip t's last input
			}
		}
		for _, t := range r.preT[p] {
			if !slices.Contains(r.pre[t], p) {
				continue scan
			}
		}
		r.cert.rules[constantPlace]++
		err := r.dropPlace(p, recon{kind: reconConst, value: 1})
		return err == nil, err
	}
	return false, nil
}

// dropImplicitPlace removes one sink place (p• = ∅, so no transition's
// enabledness depends on it) whose marking is implied by a P-invariant
// over the remaining places: y with y(p) ≥ 1 gives
// m(p) = (y·m₀ − Σ_{q≠p} y(q)·m(q)) / y(p) in every reachable marking.
// Only when a sink candidate exists is the working copy materialized and
// its invariants computed; a Farkas row-cap overflow skips the rule
// rather than failing the reduction.
func (r *reducer) dropImplicitPlace() (bool, error) {
	hasSink := false
	for p, alive := range r.aliveP {
		if alive && len(r.postT[p]) == 0 && !r.protect[p] {
			hasSink = true
			break
		}
	}
	if !hasSink {
		return false, nil
	}
	r.materialize()
	n := r.cur
	invariants, err := structural.PInvariants(n, r.opts.MaxInvariantRows)
	if err != nil {
		return false, nil // cap exceeded: skip the rule, soundly
	}
	m0 := n.InitialMarking()
	for cp, p := range r.curOrig {
		if len(r.postT[p]) != 0 || r.protect[p] {
			continue
		}
		for _, y := range invariants {
			if y[cp] < 1 {
				continue
			}
			rec := recon{
				kind:   reconInvariant,
				target: structural.Weight(y, m0),
				selfW:  y[cp],
			}
			for q, w := range y {
				if q != cp && w != 0 {
					rec.coeff = append(rec.coeff, placeWeight{place: r.curOrig[q], weight: w})
				}
			}
			r.cert.rules[implicitPlace]++
			err := r.dropPlace(p, rec)
			return err == nil, err
		}
	}
	return false, nil
}

// agglomerate collapses one series chain: a place p with m₀(p) = 0, a
// single consumer t with •t = {p} and p ∉ t•, and at least one producer.
// Each producer u fires u;t atomically (post (u•\{p}) ∪ t•); p and t are
// removed. t is structurally conflict-free (no other transition reads
// p), firing it only adds tokens elsewhere, so eager firing commutes
// with every interleaving: the reduced reachability set is exactly the
// p-empty slice of the original, and since every original dead marking
// has p empty (t would be enabled otherwise), the dead markings — and
// the deadlock verdict and witness — are preserved exactly.
func (r *reducer) agglomerate() (bool, error) {
	for i, alive := range r.aliveP {
		p := petri.Place(i)
		if !alive || r.marked[p] || r.protect[p] {
			continue
		}
		if len(r.postT[p]) != 1 {
			continue
		}
		t := r.postT[p][0]
		if len(r.pre[t]) != 1 || slices.Contains(r.post[t], p) {
			continue
		}
		if len(r.preT[p]) == 0 {
			continue // unmarkable; pruneDead's siphon handles it
		}
		// p and t go first, so no list holds both p and t's outputs at
		// once. Their own lists are only read from then on.
		producers, outputs := r.preT[p], r.post[t]
		r.cert.rules[postAgglomeration]++
		r.dropTrans(t)
		if err := r.dropPlace(p, recon{kind: reconConst, value: 0}); err != nil {
			return false, err
		}
		for _, u := range producers {
			for _, q := range outputs {
				var added bool
				if r.post[u], added = with(r.post[u], q, &r.placeRoom); added {
					r.preT[q], _ = with(r.preT[q], u, &r.transRoom)
				}
			}
		}
		return true, nil
	}
	return false, nil
}
