package petri

import "fmt"

// CloneBuilder returns a Builder pre-populated with the net's places,
// transitions, arcs and initial marking, so a derived net can be built.
// Place and transition identifiers are preserved.
func CloneBuilder(n *Net) *Builder {
	b := NewBuilder(n.name)
	for p := 0; p < n.NumPlaces(); p++ {
		b.Place(n.placeNames[p])
	}
	for t := 0; t < n.NumTrans(); t++ {
		tt := b.Trans(n.transNames[t])
		b.In(tt, n.pre[t]...)
		b.Out(tt, n.post[t]...)
	}
	b.Mark(n.initial...)
	return b
}

// WithSafetyMonitor implements the classical reduction of a safety check
// to a deadlock check (Section 4 of the paper, citing Godefroid–Wolper):
// it returns a net extended with
//
//   - a "run" place, marked initially, that every original transition
//     needs and returns (a self-loop), and
//   - a monitor transition consuming the run place and all bad places.
//
// The bad marking (all places of bad simultaneously marked) is reachable
// in the original net iff the extended net can reach a deadlock in which
// the trap place is marked: once the monitor fires, the run token is gone
// and nothing can move.
//
// Note that the run self-loop serializes the whole net — every pair of
// transitions now conflicts — which is exactly why the paper reports such
// reduced checks as more expensive for partial-order methods.
func WithSafetyMonitor(n *Net, bad []Place) (*Net, Place, error) {
	if len(bad) == 0 {
		return nil, 0, fmt.Errorf("petri: safety monitor needs at least one place")
	}
	b := CloneBuilder(n)
	run := b.Place("__run")
	trap := b.Place("__trap")
	b.Mark(run)
	// Every original transition self-loops on run.
	for t := Trans(0); int(t) < n.NumTrans(); t++ {
		b.In(t, run)
		b.Out(t, run)
	}
	mon := b.Trans("__monitor")
	b.In(mon, run)
	b.In(mon, bad...)
	b.Out(mon, trap)
	net, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	trapPlace, _ := net.PlaceByName("__trap")
	return net, trapPlace, nil
}
