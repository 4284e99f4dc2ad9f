// Package unfold implements McMillan-style net unfoldings: the complete
// finite prefix of a safe Petri net's branching process, and a
// prefix-native deadlock check.
//
// Unfoldings are the other classical partial-order attack on state
// explosion from the paper's era (its reference [13] applies them to timed
// nets): instead of exploring interleavings, the net is unrolled into an
// acyclic occurrence net whose events are partially ordered; concurrency
// never multiplies states, only conflicts branch. Cutoff events — whose
// local configuration reaches an already-represented marking — truncate
// the unrolling into a finite prefix that still represents every reachable
// marking.
//
// The package complements the generalized partial-order engine: both avoid
// interleaving blow-up, but GPO additionally collapses *conflicts*, which
// unfoldings still branch on (compare their statistics on models.Fig2).
package unfold

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/stop"
)

// ErrEventLimit is returned when the prefix exceeds Options.MaxEvents.
var ErrEventLimit = errors.New("unfold: event limit exceeded")

// Cond is a condition: an occurrence of a place.
type Cond struct {
	ID       int
	Place    petri.Place
	Producer *Event // nil for initial conditions

	co bitset // IDs of the conditions concurrent with this one
}

// Event is an occurrence of a transition.
type Event struct {
	ID     int
	T      petri.Trans
	Pre    []*Cond
	Post   []*Cond
	Cutoff bool

	local bitset        // [e] without e, whose ID is assigned at insertion
	size  int           // |[e]|: local plus e itself
	mark  petri.Marking // Mark([e])
}

// Size returns |[e]|, the number of events in the local configuration.
func (e *Event) Size() int { return e.size }

// Mark returns the marking reached by the local configuration.
func (e *Event) Mark() petri.Marking { return e.mark }

// bitset is a set of event or condition IDs.
type bitset []uint64

func (s bitset) has(id int) bool {
	w := id / 64
	return w < len(s) && s[w]&(1<<uint(id%64)) != 0
}

func (s *bitset) add(id int) {
	w := id / 64
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << uint(id%64)
}

func (s *bitset) union(o bitset) {
	for len(*s) < len(o) {
		*s = append(*s, 0)
	}
	for i, w := range o {
		(*s)[i] |= w
	}
}

func (s *bitset) intersect(o bitset) {
	if len(*s) > len(o) {
		*s = (*s)[:len(o)]
	}
	for i := range *s {
		(*s)[i] &= o[i]
	}
}

func (s bitset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// each calls f on every member, in increasing order.
func (s bitset) each(f func(id int)) {
	for i, w := range s {
		for w != 0 {
			f(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Prefix is a complete finite prefix of the net's branching process.
type Prefix struct {
	Net        *petri.Net
	Events     []*Event
	Conds      []*Cond
	InitialCut []*Cond
	CutoffCnt  int
}

// Options bounds the construction.
type Options struct {
	// Ctx, if non-nil, is polled cooperatively: once cancelled the
	// construction stops within a bounded number of events and Build
	// returns the partial prefix plus the context's error.
	Ctx context.Context
	// MaxEvents aborts the construction beyond this many events
	// (0 = no limit).
	MaxEvents int
	// Metrics, if non-nil, receives construction statistics under the
	// "unfold." prefix (see OBSERVABILITY.md). Nil costs nothing.
	Metrics *obs.Registry
	// Progress, if non-nil, gains one per inserted event.
	Progress *obs.Counter
	// Trace, if non-nil, records flight-recorder events: one state event
	// per inserted unfolding event, cutoff events, phase brackets, and a
	// terminal abort on cancellation.
	Trace *trace.Tracer
}

// Build constructs the complete finite prefix: events are inserted in
// order of local-configuration size (McMillan's adequate order), and an
// event is a cutoff when some earlier event — or the empty configuration —
// already reaches the same marking with a smaller local configuration.
func Build(n *petri.Net, opts Options) (*Prefix, error) {
	defer opts.Metrics.StartSpan("unfold.build").End()
	u := &unfolder{
		net:      n,
		prefix:   &Prefix{Net: n},
		marks:    map[string]int{n.InitialMarking().Key(): 0},
		cEvents:  opts.Metrics.Counter("unfold.events"),
		cCutoffs: opts.Metrics.Counter("unfold.cutoffs"),
		cConds:   opts.Metrics.Counter("unfold.conds"),
		gPQ:      opts.Metrics.Gauge("unfold.pq_peak"),
		progress: opts.Progress,
		tk:       opts.Trace.NewTrack("unfold"),
	}
	phBuild := opts.Trace.Intern("build")
	u.tk.Begin(phBuild)
	for _, p := range n.InitialPlaces() {
		c := u.newCond(p, nil)
		u.prefix.InitialCut = append(u.prefix.InitialCut, c)
	}
	// Initial conditions are pairwise concurrent; they seed the possible
	// extensions.
	for _, c := range u.prefix.InitialCut {
		for _, d := range u.prefix.InitialCut {
			if d != c {
				c.co.add(d.ID)
			}
		}
	}
	for _, c := range u.prefix.InitialCut {
		u.extensionsWith(c)
	}

	cancel := stop.Every(opts.Ctx, 16)
	for u.pq.Len() > 0 {
		if err := cancel.Poll(); err != nil {
			u.tk.Abort(opts.Trace.Intern(err.Error()))
			return u.prefix, fmt.Errorf("unfold: aborted: %w", err)
		}
		cand := heap.Pop(&u.pq).(*Event)
		if u.dupe(cand) {
			continue
		}
		if opts.MaxEvents > 0 && len(u.prefix.Events) >= opts.MaxEvents {
			return u.prefix, ErrEventLimit
		}
		u.insert(cand)
	}
	u.tk.End(phBuild)
	return u.prefix, nil
}

// unfolder carries construction state.
type unfolder struct {
	net    *petri.Net
	prefix *Prefix
	pq     eventPQ
	// marks maps a marking key to the smallest local-config size reaching
	// it (the initial marking has size 0).
	marks map[string]int
	// seen dedupes events by (transition, preset condition ids).
	seen map[string]bool

	// Instrumentation; the nil values are valid no-ops.
	cEvents  *obs.Counter
	cCutoffs *obs.Counter
	cConds   *obs.Counter
	gPQ      *obs.Gauge
	progress *obs.Counter
	tk       *trace.Track
}

func (u *unfolder) newCond(p petri.Place, producer *Event) *Cond {
	c := &Cond{ID: len(u.prefix.Conds), Place: p, Producer: producer}
	u.prefix.Conds = append(u.prefix.Conds, c)
	u.cConds.Inc()
	return c
}

// key identifies an event by transition and preset.
func eventKey(t petri.Trans, pre []*Cond) string {
	ids := make([]int, len(pre))
	for i, c := range pre {
		ids[i] = c.ID
	}
	sort.Ints(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", t)
	for _, id := range ids {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

func (u *unfolder) dupe(e *Event) bool {
	if u.seen == nil {
		u.seen = make(map[string]bool)
	}
	k := eventKey(e.T, e.Pre)
	if u.seen[k] {
		return true
	}
	u.seen[k] = true
	return false
}

// insert finalizes a candidate event: decides cutoff, and if not cutoff,
// adds its postset conditions, their co-sets, and the extensions they
// enable.
func (u *unfolder) insert(e *Event) {
	e.ID = len(u.prefix.Events)
	u.prefix.Events = append(u.prefix.Events, e)
	u.cEvents.Inc()
	u.progress.Add(1)
	u.tk.State(int64(e.ID), 0)

	key := e.mark.Key()
	if best, ok := u.marks[key]; ok && best < e.Size() {
		e.Cutoff = true
		u.prefix.CutoffCnt++
		u.cCutoffs.Inc()
		u.tk.Cutoff(int64(e.ID))
		return
	}
	if best, ok := u.marks[key]; !ok || e.Size() < best {
		u.marks[key] = e.Size()
	}

	for _, p := range u.net.Post(e.T) {
		e.Post = append(e.Post, u.newCond(p, e))
	}
	// A condition of e• is concurrent with its siblings and with exactly
	// the conditions concurrent with every condition of •e (Esparza,
	// Römer and Vogler): co(c) = ⋂_{b∈•e} co(b) ∪ (e• \ {c}).
	shared := slices.Clone(e.Pre[0].co)
	for _, b := range e.Pre[1:] {
		shared.intersect(b.co)
	}
	for _, c := range e.Post {
		c.co = slices.Clone(shared)
		for _, d := range e.Post {
			if d != c {
				c.co.add(d.ID)
			}
		}
	}
	shared.each(func(id int) {
		x := u.prefix.Conds[id]
		for _, c := range e.Post {
			x.co.add(c.ID)
		}
	})
	for _, c := range e.Post {
		u.extensionsWith(c)
	}
}

// extensionsWith enumerates candidate events whose preset contains the new
// condition c: for every consumer transition of c's place, it searches
// c's co-set, in increasing condition ID, for the remaining input places.
func (u *unfolder) extensionsWith(c *Cond) {
	for _, t := range u.net.PostT(c.Place) {
		pre := u.net.Pre(t)
		// Candidate conditions per input place; c is fixed for its place.
		choices := make([][]*Cond, len(pre))
		for i, p := range pre {
			if p == c.Place {
				choices[i] = []*Cond{c}
				continue
			}
			c.co.each(func(id int) {
				if cand := u.prefix.Conds[id]; cand.Place == p {
					choices[i] = append(choices[i], cand)
				}
			})
			if len(choices[i]) == 0 {
				choices = nil
				break
			}
		}
		if choices == nil {
			continue
		}
		u.combine(t, choices, 0, make([]*Cond, 0, len(pre)))
	}
}

// combine backtracks over the per-place choices, requiring pairwise
// concurrency, and pushes complete presets as candidate events.
func (u *unfolder) combine(t petri.Trans, choices [][]*Cond, i int, acc []*Cond) {
	if i == len(choices) {
		u.push(t, append([]*Cond(nil), acc...))
		return
	}
	for _, cand := range choices[i] {
		ok := true
		for _, prev := range acc {
			if !cand.co.has(prev.ID) {
				ok = false
				break
			}
		}
		if ok {
			u.combine(t, choices, i+1, append(acc, cand))
		}
	}
}

// push computes the candidate's local configuration and marking and
// enqueues it.
func (u *unfolder) push(t petri.Trans, pre []*Cond) {
	e := &Event{T: t, Pre: pre}
	for _, c := range pre {
		if c.Producer != nil {
			e.local.union(c.Producer.local)
			e.local.add(c.Producer.ID)
		}
	}
	e.size = e.local.count() + 1
	e.mark = u.markOf(e)
	heap.Push(&u.pq, e)
	u.gPQ.SetMax(int64(u.pq.Len()))
}

// markOf computes Mark([e]): the initial conditions and the postsets of
// [e]'s events, minus every condition an event of [e] consumes.
func (u *unfolder) markOf(e *Event) petri.Marking {
	var consumed bitset
	for _, c := range e.Pre {
		consumed.add(c.ID)
	}
	e.local.each(func(id int) {
		for _, c := range u.prefix.Events[id].Pre {
			consumed.add(c.ID)
		}
	})
	m := u.net.EmptyMarking()
	place := func(c *Cond) {
		if !consumed.has(c.ID) {
			m.Set(c.Place)
		}
	}
	for _, c := range u.prefix.InitialCut {
		place(c)
	}
	e.local.each(func(id int) {
		for _, c := range u.prefix.Events[id].Post {
			place(c)
		}
	})
	// e's own postset.
	for _, p := range u.net.Post(e.T) {
		m.Set(p)
	}
	return m
}

// eventPQ orders candidate events by local-configuration size.
type eventPQ []*Event

func (q eventPQ) Len() int           { return len(q) }
func (q eventPQ) Less(i, j int) bool { return q[i].Size() < q[j].Size() }
func (q eventPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventPQ) Push(x any)        { *q = append(*q, x.(*Event)) }
func (q *eventPQ) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}
