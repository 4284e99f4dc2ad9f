package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"regexp"

	"repro/internal/petri"
)

// The oracle is the benchmark's own reference for nets small enough to
// enumerate: a naive breadth-first search written against Net.Pre and
// Net.Post only. It shares no code with the engines being timed (no
// Marking.Key, no EnabledTrans, no Fire), so an engine bug cannot hide
// in its own reference.

// oracleAnswer is what the naive search establishes about a net.
type oracleAnswer struct {
	states   int
	deadlock bool
	reached  map[string]bool // every reachable marking, by markKey
}

// markKey renders a marking (one bool per place) as a map key.
func markKey(m []bool) string {
	b := make([]byte, len(m))
	for i, v := range m {
		if v {
			b[i] = 1
		}
	}
	return string(b)
}

func enabledIn(n *petri.Net, m []bool, t petri.Trans) bool {
	for _, p := range n.Pre(t) {
		if !m[p] {
			return false
		}
	}
	return true
}

// isDead reports whether no transition of n is enabled in m.
func isDead(n *petri.Net, m []bool) bool {
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		if enabledIn(n, m, t) {
			return false
		}
	}
	return true
}

// oracleExplore enumerates the reachable markings of a safe net. It
// refuses nets with more than limit states instead of running away.
func oracleExplore(n *petri.Net, limit int) (*oracleAnswer, error) {
	init := make([]bool, n.NumPlaces())
	for _, p := range n.InitialPlaces() {
		init[p] = true
	}
	ans := &oracleAnswer{reached: map[string]bool{markKey(init): true}}
	queue := [][]bool{init}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		dead := true
		for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
			if !enabledIn(n, m, t) {
				continue
			}
			dead = false
			next := append([]bool(nil), m...)
			for _, p := range n.Pre(t) {
				next[p] = false
			}
			for _, p := range n.Post(t) {
				next[p] = true
			}
			if k := markKey(next); !ans.reached[k] {
				if len(ans.reached) >= limit {
					return nil, fmt.Errorf("oracle: %s has more than %d states", n.Name(), limit)
				}
				ans.reached[k] = true
				queue = append(queue, next)
			}
		}
		ans.deadlock = ans.deadlock || dead
	}
	ans.states = len(ans.reached)
	return ans, nil
}

// oracleLimit bounds the nets the oracle will enumerate; set-up time is a
// gated metric, so the reference search stays a fraction of a second.
const oracleLimit = 40000

//go:embed expected.json
var expectedJSON []byte

// expectedFile is benchmark/expected.json: the hand-written answers for
// the instances too large for the oracle. Verdicts are per family (every
// family is deadlocking or deadlock-free at every size); state counts are
// keyed "family(size)/engine", with "family(*)/engine" for counts that do
// not depend on the size. A key that is absent means "no pinned count":
// the verdict, completeness and witness are still checked.
type expectedFile struct {
	Deadlock map[string]bool `json:"deadlock"`
	States   map[string]int  `json:"states"`
}

func loadExpected(data []byte) (*expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

var sizeRE = regexp.MustCompile(`\(\d+\)`)

// states looks up the pinned state count of "family(size)/engine".
func (e *expectedFile) states(key string) (int, bool) {
	if v, ok := e.States[key]; ok {
		return v, true
	}
	v, ok := e.States[sizeRE.ReplaceAllString(key, "(*)")]
	return v, ok
}

// reference is the answer one class of operations is checked against.
type reference struct {
	deadlock bool
	states   int  // exact expected count, if known
	maxState int  // upper bound (the full state space), if > 0
	known    bool // states is authoritative
	oracle   *oracleAnswer
}

// outcome is an operation's result in the engine-neutral shape both the
// library path (verify.Report) and the service path (server.Response)
// reduce to.
type outcome struct {
	deadlock bool
	complete bool
	aborted  bool
	states   int
	witness  []bool // nil when the engine reported none
}

// check compares an outcome with its reference on net n. A nil error
// means every checked field agrees.
func (r *reference) check(n *petri.Net, o outcome) error {
	switch {
	case o.aborted:
		return fmt.Errorf("aborted")
	case !o.complete:
		return fmt.Errorf("incomplete")
	case o.deadlock != r.deadlock:
		return fmt.Errorf("verdict deadlock=%v, want %v", o.deadlock, r.deadlock)
	case r.known && o.states != r.states:
		return fmt.Errorf("states=%d, want %d", o.states, r.states)
	case r.maxState > 0 && o.states > r.maxState:
		return fmt.Errorf("states=%d exceeds the full state space %d", o.states, r.maxState)
	case o.deadlock && o.witness == nil:
		return fmt.Errorf("deadlock reported without a witness")
	case !o.deadlock && o.witness != nil:
		return fmt.Errorf("witness reported for a deadlock-free net")
	}
	if o.witness != nil {
		if !isDead(n, o.witness) {
			return fmt.Errorf("witness is not a dead marking")
		}
		if r.oracle != nil && !r.oracle.reached[markKey(o.witness)] {
			return fmt.Errorf("witness is not reachable")
		}
	}
	return nil
}

// witnessOf converts an engine marking to the oracle's representation.
func witnessOf(n *petri.Net, m petri.Marking) []bool {
	if m == nil {
		return nil
	}
	w := make([]bool, n.NumPlaces())
	for _, p := range m.Places() {
		if int(p) < len(w) {
			w[p] = true
		}
	}
	return w
}

// witnessByName converts a wire witness (place names) to the oracle's
// representation; an unknown place name is a wrong answer.
func witnessByName(n *petri.Net, names []string) ([]bool, error) {
	if len(names) == 0 {
		return nil, nil
	}
	w := make([]bool, n.NumPlaces())
	for _, name := range names {
		p, ok := n.PlaceByName(name)
		if !ok {
			return nil, fmt.Errorf("witness names unknown place %q", name)
		}
		w[p] = true
	}
	return w, nil
}
