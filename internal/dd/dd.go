// Package dd is the node store under both decision-diagram packages,
// internal/bdd and internal/zdd (DESIGN.md D7): a node arena and an
// open-addressed unique table of node indices, in the style of
// CUDD/Sylvan rather than a Go map, probed linearly and doubled at 3/4
// load. A slot costs 4 bytes because probes compare against the node
// fields in the arena. The arena is a list of small fixed-size chunks,
// so a node is written once and never copied.
//
// Nodes are never freed, so a node id is a creation rank: Len is the peak
// and the lifetime allocation count, ascending id is a topological order
// (children first), and per-node side arrays indexed by id stay valid for
// the table's lifetime.
//
// What differs between the two diagrams is not here: the reduction rule
// (applied by the caller before Intern), the operators and the computed
// cache each package keeps for them.
package dd

// Node references a node of a Table. 0 and 1 are the two terminals; all
// other values index the arena.
type Node int32

// Entry is one arena node: the level it tests and its two children.
// Terminals carry the terminal level given to Init.
type Entry struct {
	Level  int32
	Lo, Hi Node
}

// Node n is entry n&chunkMask of arena chunk n>>chunkBits. A chunk is
// 3 KB, so a small diagram stays small; chunks are arrays, so reading a
// node checks one bound, as a flat arena does (DESIGN.md D7).
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// Table is the arena and the unique table over it. It is
// single-goroutine, and its counters are plain integers so that they
// cost one increment on the hot path.
type Table struct {
	// chunks is the arena, n its node count (terminals included).
	chunks []*[chunkSize]Entry
	n      int

	// unique holds node indices (0 = empty; terminals are never
	// interned), hashed by (level, lo, hi).
	unique []Node

	// Scratch of the whole-DAG walks, allocated by the first walk and
	// re-sized by Walk: node i was visited by the current walk iff
	// stamp[i] == gen.
	stamp []uint32
	gen   uint32

	// probes accumulates collision steps beyond the home slot, so
	// probes/(hits+misses) is the mean excess probe length.
	hits, misses, probes int64

	// Grown, if non-nil, is called after each doubling of the unique
	// table with its new slot count. It must not call Intern.
	Grown func(slots int)
}

// Init empties the table: two terminals at terminalLevel, and a unique
// table of the given slot count (a power of two).
func (t *Table) Init(terminalLevel, slots int) {
	first := &[chunkSize]Entry{{Level: int32(terminalLevel)}, {Level: int32(terminalLevel)}}
	t.chunks, t.n = []*[chunkSize]Entry{first}, 2
	t.unique = make([]Node, slots)
}

// At returns node n.
func (t *Table) At(n Node) Entry { return t.chunks[n>>chunkBits][n&chunkMask] }

// Len returns the number of nodes, terminals included.
func (t *Table) Len() int { return t.n }

// Slots returns the unique table's slot count.
func (t *Table) Slots() int { return len(t.unique) }

// Counts returns the unique-table lookups that found their node, those
// that created it, and the probe steps all of them took beyond the home
// slot.
func (t *Table) Counts() (hits, misses, probes int64) { return t.hits, t.misses, t.probes }

// Mix64 is the splitmix64 finalizer; a full-avalanche 64-bit mix.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashTriple(level int32, lo, hi Node) uint64 {
	h := uint64(uint32(lo))<<32 | uint64(uint32(hi))
	return Mix64(h ^ uint64(uint32(level))*0x9e3779b97f4a7c15)
}

// Intern returns the node (level, lo, hi), appending it to the arena if
// it is new; the caller has already applied its reduction rule. A new
// node's id is Len() before the call.
func (t *Table) Intern(level int32, lo, hi Node) Node {
	mask := uint64(len(t.unique) - 1)
	i := hashTriple(level, lo, hi) & mask
	for {
		slot := t.unique[i]
		if slot == 0 {
			break
		}
		nd := &t.chunks[slot>>chunkBits][slot&chunkMask]
		if nd.Level == level && nd.Lo == lo && nd.Hi == hi {
			t.hits++
			return slot
		}
		t.probes++
		i = (i + 1) & mask
	}
	t.misses++
	n := Node(t.n)
	if n&chunkMask == 0 {
		t.chunks = append(t.chunks, new([chunkSize]Entry))
	}
	t.chunks[n>>chunkBits][n&chunkMask] = Entry{level, lo, hi}
	t.n++
	t.unique[i] = n
	// Grow at 3/4 load ((nodes-2) live entries ≥ 3/4 of the slots).
	if (int(n)-1)*4 >= len(t.unique)*3 {
		t.grow()
	}
	return n
}

// grow doubles the unique table and re-homes every interned node. Values
// are node indices, so rehashing reads the arena, which stays put.
func (t *Table) grow() {
	next := make([]Node, 2*len(t.unique))
	mask := uint64(len(next) - 1)
	for idx := Node(2); int(idx) < t.n; idx++ {
		nd := t.At(idx)
		i := hashTriple(nd.Level, nd.Lo, nd.Hi) & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = idx
	}
	t.unique = next
	if t.Grown != nil {
		t.Grown(len(next))
	}
}

// Walk starts a whole-DAG walk: it sizes the stamps to the nodes the
// unique table holds before it doubles and opens a fresh generation, so
// every stamp of an earlier walk reads as unvisited without being cleared.
func (t *Table) Walk() {
	if len(t.stamp) < t.n {
		t.stamp = make([]uint32, len(t.unique)/4*3+2) // all zero: no generation is 0
	}
	if t.gen++; t.gen == 0 { // wrapped: stamps of 2³² walks ago would alias
		clear(t.stamp)
		t.gen = 1
	}
}

// Seen reports whether the current walk has visited n; terminals always
// count as visited.
func (t *Table) Seen(n Node) bool { return n <= 1 || t.stamp[n] == t.gen }

// Visit marks n as seen by the current walk and reports whether it
// already was.
func (t *Table) Visit(n Node) (seen bool) {
	if t.Seen(n) {
		return true
	}
	t.stamp[n] = t.gen
	return false
}
