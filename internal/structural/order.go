package structural

import (
	"slices"

	"repro/internal/petri"
)

// TransitionOrder returns a static order of the net's transitions for the
// levels of a decision diagram over them: order[l] is the transition at
// level l. The clusters (Net.Clusters, the components of the conflict
// graph) follow each other by their smallest transition, and each is
// walked breadth-first over the conflict relation from that transition,
// the neighbours of a transition visited in ascending order (Cuthill–
// McKee without the degree sort). Transitions in conflict end up on
// neighbouring levels, where the valid-set families of GPO decide them
// together (DESIGN.md D7).
//
// A place's consumers are queued when the first of them is visited, and
// the place is never expanded again, so the walk costs O(arcs), plus a
// sort of each transition's newly found neighbours; the result and the
// walk's flags share one allocation.
func TransitionOrder(n *petri.Net) []petri.Trans {
	nT, nP := n.NumTrans(), n.NumPlaces()
	buf := make([]petri.Trans, 2*nT+nP)
	// seen[t] and expanded[p] are flags (non-zero: set).
	order, seen, expanded := buf[:0:nT], buf[nT:2*nT], buf[2*nT:]
	for _, c := range n.Clusters() {
		order = append(order, c[0])
		seen[c[0]] = 1
		for head := len(order) - 1; head < len(order); head++ {
			found := len(order)
			for _, p := range n.Pre(order[head]) {
				if expanded[p] != 0 {
					continue
				}
				expanded[p] = 1
				for _, u := range n.PostT(p) {
					if seen[u] == 0 {
						seen[u] = 1
						order = append(order, u)
					}
				}
			}
			slices.Sort(order[found:])
		}
	}
	return order
}
