package dd

import (
	"math"
	"math/rand"
	"testing"
)

// TestInternAgainstMap interns seeded random triples, about half of them
// repeats, into a table and into a map, across several doublings: same
// ids, same length, same hit and miss totals, and at every step the arena
// has exactly the capacity its unique table can fill.
func TestInternAgainstMap(t *testing.T) {
	const levels, slots = 8, 16
	for seed := int64(1); seed <= 4; seed++ {
		var tb Table
		tb.Init(levels, slots)
		var grown []int
		tb.Grown = func(slots int) {
			if tb.Slots() != slots || tb.Cap() != ArenaCap(slots) {
				t.Fatalf("Grown(%d) with %d slots and arena capacity %d", slots, tb.Slots(), tb.Cap())
			}
			grown = append(grown, slots)
		}
		ref := map[[3]int32]Node{}
		var hits, misses int64
		rng := rand.New(rand.NewSource(seed))
		var seen [][3]int32
		for step := 0; step < 4000; step++ {
			var k [3]int32
			if len(seen) > 0 && rng.Intn(2) == 0 {
				k = seen[rng.Intn(len(seen))]
			} else {
				k = [3]int32{int32(rng.Intn(levels)), int32(rng.Intn(tb.Len())), int32(rng.Intn(tb.Len()))}
				seen = append(seen, k)
			}
			want, ok := ref[k]
			if ok {
				hits++
			} else {
				misses++
				want = Node(len(ref) + 2)
				ref[k] = want
			}
			if got := tb.Intern(k[0], Node(k[1]), Node(k[2])); got != want {
				t.Fatalf("seed %d step %d: Intern%v = %d, the map says %d", seed, step, k, got, want)
			}
			if e := tb.At(want); e != (Entry{k[0], Node(k[1]), Node(k[2])}) {
				t.Fatalf("seed %d step %d: At(%d) = %+v, interned %v", seed, step, want, e, k)
			}
			if tb.Len() != len(ref)+2 || tb.Cap() != ArenaCap(tb.Slots()) {
				t.Fatalf("seed %d step %d: Len %d (want %d), Cap %d (want %d for %d slots)",
					seed, step, tb.Len(), len(ref)+2, tb.Cap(), ArenaCap(tb.Slots()), tb.Slots())
			}
		}
		if h, m, p := tb.Counts(); h != hits || m != misses || p == 0 {
			t.Errorf("seed %d: %d hits, %d misses, %d probes; the map saw %d and %d, and some lookup collided", seed, h, m, p, hits, misses)
		}
		if len(grown) < 3 {
			t.Errorf("seed %d: %d doublings; the test no longer crosses three", seed, len(grown))
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
// doubling that moves the arena under the stamps, and when the generation
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
