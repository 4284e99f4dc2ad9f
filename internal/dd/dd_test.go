package dd

import (
	"math"
	"math/rand"
	"testing"
)

// TestInternAgainstMap interns seeded random triples, about half of them
// repeats, into a table and into a map, across many doublings and past
// 500 arena chunk boundaries: same ids, same length, same hit and miss
// totals, and at the end every node still reads back as interned.
func TestInternAgainstMap(t *testing.T) {
	const levels, slots = 8, 16
	const want = 1<<17 + 1000 // nodes, terminals included
	for seed := int64(1); seed <= 2; seed++ {
		var tb Table
		tb.Init(levels, slots)
		if len(tb.chunks) != 1 {
			t.Fatalf("a fresh table's arena has %d chunks, want 1", len(tb.chunks))
		}
		var grown []int
		tb.Grown = func(slots int) {
			if tb.Slots() != slots {
				t.Fatalf("Grown(%d) with %d slots", slots, tb.Slots())
			}
			grown = append(grown, slots)
		}
		ref := map[[3]int32]Node{}
		byID := [][3]int32{{levels}, {levels}} // the terminals
		var hits, misses int64
		rng := rand.New(rand.NewSource(seed))
		for step := 0; len(byID) < want; step++ {
			var k [3]int32
			if rng.Intn(2) == 0 && len(byID) > 2 {
				k = byID[2+rng.Intn(len(byID)-2)]
			} else {
				k = [3]int32{int32(rng.Intn(levels)), int32(rng.Intn(tb.Len())), int32(rng.Intn(tb.Len()))}
			}
			id, ok := ref[k]
			if ok {
				hits++
			} else {
				misses++
				id = Node(len(byID))
				ref[k] = id
				byID = append(byID, k)
			}
			if got := tb.Intern(k[0], Node(k[1]), Node(k[2])); got != id {
				t.Fatalf("seed %d step %d: Intern%v = %d, the map says %d", seed, step, k, got, id)
			}
			if e := tb.At(id); e != (Entry{k[0], Node(k[1]), Node(k[2])}) {
				t.Fatalf("seed %d step %d: At(%d) = %+v, interned %v", seed, step, id, e, k)
			}
			if tb.Len() != len(byID) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, tb.Len(), len(byID))
			}
		}
		for id, k := range byID[2:] {
			if e := tb.At(Node(id + 2)); e != (Entry{k[0], Node(k[1]), Node(k[2])}) {
				t.Fatalf("seed %d: at the end At(%d) = %+v, interned %v", seed, id+2, e, k)
			}
		}
		if h, m, p := tb.Counts(); h != hits || m != misses || p == 0 {
			t.Errorf("seed %d: %d hits, %d misses, %d probes; the map saw %d and %d, and some lookup collided", seed, h, m, p, hits, misses)
		}
		if len(grown) < 3 {
			t.Errorf("seed %d: %d doublings; the test no longer crosses three", seed, len(grown))
		}
		if c := (want + chunkSize - 1) / chunkSize; len(tb.chunks) != c {
			t.Errorf("seed %d: %d nodes in %d chunks, want %d", seed, tb.Len(), len(tb.chunks), c)
		}
		for i, s := range grown {
			if s != slots<<(i+1) {
				t.Errorf("seed %d: doubling %d reported %d slots, want %d", seed, i, s, slots<<(i+1))
			}
		}
		if e := tb.At(0); e.Level != levels || tb.At(1) != e {
			t.Errorf("seed %d: terminals %+v %+v, want level %d", seed, tb.At(0), tb.At(1), levels)
		}
	}
}

// TestWalkStamps checks that a walk sees only its own marks: after a
// doubling that outgrows the stamps, and when the generation
// counter wraps to the value old stamps carry.
func TestWalkStamps(t *testing.T) {
	var tb Table
	tb.Init(4, 16)
	chain := func(n int) { // n new nodes, each on top of the last
		for i := 0; i < n; i++ {
			tb.Intern(0, Node(tb.Len()-1), 1)
		}
	}
	markAll := func() (fresh int) {
		for n := Node(0); int(n) < tb.Len(); n++ {
			if !tb.Visit(n) {
				fresh++
			}
			if !tb.Seen(n) {
				t.Fatalf("node %d unseen right after Visit", n)
			}
		}
		return fresh
	}
	chain(5)
	tb.Walk()
	if tb.Seen(2) || !tb.Seen(0) || !tb.Seen(1) {
		t.Fatal("a fresh walk must see the terminals and nothing else")
	}
	if got := markAll(); got != 5 {
		t.Fatalf("first walk marked %d nodes, want 5", got)
	}
	slots := tb.Slots()
	chain(40)
	if tb.Slots() == slots {
		t.Fatal("the test needs a doubling between the walks")
	}
	tb.Walk()
	if got := markAll(); got != 45 {
		t.Fatalf("walk after a doubling marked %d nodes, want all 45", got)
	}
	// Two nodes no walk has stamped, then a wrap: a generation of 0 would
	// read them as seen. Every stamp is 1 after that walk, and so is the
	// generation after the next wrap: uncleared, they would all alias.
	chain(2)
	for wrap := 0; wrap < 2; wrap++ {
		tb.gen = math.MaxUint32
		tb.Walk()
		if got := markAll(); tb.gen != 1 || got != 47 {
			t.Fatalf("wrap %d: generation %d, walk marked %d nodes; want 1 and all 47", wrap, tb.gen, got)
		}
	}
}
