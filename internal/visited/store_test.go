package visited

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/petri"
	"repro/internal/randnet"
)

// oracle is the store the engines used before this package: a Go map
// keyed by Marking.Key() strings, ids in insertion order.
type oracle struct {
	ids   map[string]int
	marks []petri.Marking
}

func newOracle() *oracle { return &oracle{ids: make(map[string]int)} }

// checkAgainst interns the stream into a Store and the oracle side by
// side — Lookup first, Insert only when absent, the way every engine
// does — and requires the same id for every element, then the same
// marking behind every id. hash stands in for petri.Marking.Hash, as
// the argument and (through the rehash hook) on table growth.
func checkAgainst(t testing.TB, stream []petri.Marking, hash func(petri.Marking) uint64) *Store {
	t.Helper()
	rehash = hash
	defer func() { rehash = petri.Marking.Hash }()
	s := new(Store)
	o := newOracle()
	for i, m := range stream {
		want, known := o.ids[m.Key()]
		got := s.Lookup(m, hash(m))
		if !known {
			if got != -1 {
				t.Fatalf("element %d: Lookup of an unseen marking = %d, want -1", i, got)
			}
			want = len(o.marks)
			o.ids[m.Key()] = want
			o.marks = append(o.marks, m.Clone())
			got = s.Insert(m, hash(m))
		}
		if got != want {
			t.Fatalf("element %d: id %d, oracle says %d", i, got, want)
		}
		if s.Len() != len(o.marks) {
			t.Fatalf("element %d: Len %d, oracle holds %d", i, s.Len(), len(o.marks))
		}
	}
	for id, m := range o.marks {
		if !s.At(id).Equal(m) {
			t.Fatalf("At(%d) = %v, want %v", id, s.At(id), m)
		}
		if got := s.Lookup(m, hash(m)); got != id {
			t.Fatalf("Lookup of stored marking %d = %d", id, got)
		}
	}
	return s
}

// reachable returns the markings of n in BFS order, successors repeated
// as the search meets them (so the stream is mostly duplicates, like an
// explorer's), capped at limit elements.
func reachable(n *petri.Net, limit int) []petri.Marking {
	stream := []petri.Marking{n.InitialMarking()}
	seen := make(map[string]bool)
	for i := 0; i < len(stream) && len(stream) < limit; i++ {
		if seen[stream[i].Key()] {
			continue // a repeat: expanded where it first appeared
		}
		seen[stream[i].Key()] = true
		for _, t := range n.EnabledTrans(stream[i]) {
			next, _ := n.Fire(stream[i], t)
			stream = append(stream, next)
		}
	}
	return stream
}

// randomStream draws count markings of w words from a pool small enough
// that most draws repeat, with the adversarial shapes mixed in: all-zero,
// every single-bit marking, all-ones.
func randomStream(rng *rand.Rand, w, count int) []petri.Marking {
	pool := []petri.Marking{make(petri.Marking, w)}
	ones := make(petri.Marking, w)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	pool = append(pool, ones)
	for bit := 0; bit < 64*w; bit++ {
		m := make(petri.Marking, w)
		m.Set(petri.Place(bit))
		pool = append(pool, m)
	}
	for len(pool) < count/3+2 {
		m := make(petri.Marking, w)
		for i := range m {
			m[i] = rng.Uint64() >> uint(rng.Intn(64)) // sparse and dense words
		}
		pool = append(pool, m)
	}
	stream := make([]petri.Marking, count)
	for i := range stream {
		stream[i] = pool[rng.Intn(len(pool))]
	}
	return stream
}

// Hash stand-ins: the real one, one that maps everything to 16 values
// (long probe chains, every growth re-homes colliding entries), and one
// that collides totally.
var hashes = map[string]func(petri.Marking) uint64{
	"real":     petri.Marking.Hash,
	"16-way":   func(m petri.Marking) uint64 { return m.Hash() & 15 },
	"constant": func(petri.Marking) uint64 { return 42 },
}

// TestStoreVsMap is the differential property test: over random-net
// state spaces and adversarial synthetic streams, at widths 1, 2 and 5,
// across several table doublings and arena chunk boundaries, with honest
// and colliding hashes, the store assigns exactly the ids a
// map[string]int over Marking.Key() assigns.
func TestStoreVsMap(t *testing.T) {
	for name, hash := range hashes {
		count := 20000 // crosses chunks 0..9 and ten table doublings
		if name == "constant" {
			count = 1500 // quadratic by construction
		}
		for _, w := range []int{1, 2, 5} {
			rng := rand.New(rand.NewSource(int64(w)))
			checkAgainst(t, randomStream(rng, w, count), hash)
		}
		for seed := int64(1); seed <= 20; seed++ {
			cfg := randnet.Default(seed)
			cfg.Machines, cfg.PlacesPer = 2+int(seed%5), 3+int(seed%23) // 1 to 2 words
			checkAgainst(t, reachable(randnet.Generate(cfg), count/10), hash)
		}
	}
}

// phiInv is the inverse of slot's Fibonacci multiplier modulo 2^64
// (Newton's iteration, each step doubling the correct low bits), so a
// stand-in hash x·phiInv multiplies back to exactly x: the test picks the
// product bits slot reads, home slot and tag alike.
var phiInv = func() uint64 {
	const phi = 0x9e3779b97f4a7c15
	x := uint64(phi) // phi·phi ≡ 1 mod 8: three bits right
	for range 5 {
		x *= 2 - phi*x
	}
	return x
}()

// TestTaggedSlots drives the tag in the id's spare bits through the
// rehash hook with two hashes whose products share the top 20 bits, so
// every marking has one home slot at every table size up to 2^20 and
// each probe walks one chain: under "tags differ" the next 12 bits vary,
// so the tag decides most probes without the arena; under "tags equal"
// the top 32 bits are all the same, so every probe reaches Equal. 7 000
// distinct markings take the table from 16 slots through ten doublings.
func TestTaggedSlots(t *testing.T) {
	const distinct = 7000
	var stream []petri.Marking
	for i := uint64(0); i < distinct; i++ {
		stream = append(stream, petri.Marking{i * 0x2545f4914f6cdd1d})
		if i%7 == 0 {
			stream = append(stream, stream[len(stream)/2]) // a repeat
		}
	}
	for name, c := range map[string]struct {
		hash             func(petri.Marking) uint64
		minTags, maxTags int // distinct tags the final table holds
	}{
		"tags differ": {func(m petri.Marking) uint64 { return (0xabcde<<44 | m.Hash()&(1<<44-1)) * phiInv }, 1000, 1 << 12},
		"tags equal":  {func(m petri.Marking) uint64 { return (0xabcde123<<32 | m.Hash()&(1<<32-1)) * phiInv }, 1, 1},
	} {
		s := checkAgainst(t, stream, c.hash)
		if k := bits.TrailingZeros(uint(len(s.table))); k < firstLog+10 {
			t.Fatalf("%s: %d-slot table: fewer than ten doublings", name, len(s.table))
		}
		tags := make(map[uint32]bool)
		for _, e := range s.table {
			if e != 0 {
				tags[e&^uint32(len(s.table)-1)] = true
			}
		}
		if len(tags) < c.minTags || len(tags) > c.maxTags {
			t.Errorf("%s: %d distinct tags in the table", name, len(tags))
		}
	}
}

// TestEmptyAndZeroWidth pins the corners: the zero Store answers Lookup
// without allocating anything, and a net without places has exactly one
// (empty) marking.
func TestEmptyAndZeroWidth(t *testing.T) {
	var s Store
	if s.Len() != 0 || s.Lookup(petri.Marking{1}, 7) != -1 {
		t.Fatal("zero Store is not an empty store")
	}
	if s.table != nil || s.chunks != nil {
		t.Fatal("Lookup on the zero Store allocated")
	}
	var e Store
	empty := petri.Marking{}
	if id := e.Insert(empty, empty.Hash()); id != 0 {
		t.Fatalf("first id %d", id)
	}
	if e.Lookup(empty, empty.Hash()) != 0 || len(e.At(0)) != 0 {
		t.Fatal("zero-width marking not found again")
	}
}

// TestSmallFootprint pins the constraint the sub-millisecond nets of
// table1-reduce (and a parallel explorer of many workers) rely on: a store
// holding a handful of markings owns a few hundred bytes, not a chunk
// sized for a large run.
func TestSmallFootprint(t *testing.T) {
	var s Store
	for i := uint64(0); i < 10; i++ {
		m := petri.Marking{i}
		s.Insert(m, m.Hash())
	}
	bytes := 4 * len(s.table)
	for _, c := range s.chunks {
		bytes += 8 * len(c)
	}
	if bytes > 512 {
		t.Errorf("10 one-word markings occupy %d bytes", bytes)
	}
}

// TestLocate pins the arena geometry: consecutive ids fill each chunk
// exactly, in order, through the doubling regime and into the fixed one.
func TestLocate(t *testing.T) {
	wantChunk, wantIdx := 0, 0
	for id := 0; id < geoLen+3<<lastLog; id++ {
		c, i := locate(id)
		if c != wantChunk || i != wantIdx {
			t.Fatalf("locate(%d) = (%d,%d), want (%d,%d)", id, c, i, wantChunk, wantIdx)
		}
		wantIdx++
		if wantIdx == 1<<min(firstLog+wantChunk, lastLog) {
			wantChunk, wantIdx = wantChunk+1, 0
		}
	}
}

// TestViewsSurviveGrowth is the property Result.Deadlocks, Graph.States
// and Snapshot.States depend on: an At view taken early still reads its
// marking after a million more inserts — 16 table doublings and two
// dozen new chunks later — because chunks never move.
func TestViewsSurviveGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("1M inserts")
	}
	const early, total = 100, 1_000_000
	marking := func(i int) petri.Marking { return petri.Marking{uint64(i) * 0x9e3779b97f4a7c15, uint64(i)} }
	var s Store
	var views []petri.Marking
	for i := 0; i < total; i++ {
		m := marking(i)
		id := s.Insert(m, m.Hash())
		if i < early || i%(total/early) == 0 {
			views = append(views, s.At(id))
		}
	}
	vi := 0
	for i := 0; i < total; i++ {
		if i < early || i%(total/early) == 0 {
			if !views[vi].Equal(marking(i)) {
				t.Fatalf("view of marking %d changed under growth: %v", i, views[vi])
			}
			vi++
		}
	}
	for _, i := range []int{0, early, geoLen - 1, geoLen, total - 1} {
		m := marking(i)
		if got := s.Lookup(m, m.Hash()); got != i {
			t.Fatalf("Lookup(marking %d) = %d after growth", i, got)
		}
	}
}

// TestLimit pins the id cap: no cap, or one beyond what int32 ids can
// name, becomes MaxLen, so explorers report their state-limit error
// instead of wrapping an id.
func TestLimit(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, MaxLen}, {-1, MaxLen}, {1, 1}, {1000, 1000}, {MaxLen, MaxLen}, {MaxLen + 1, MaxLen},
	} {
		if got := Limit(c.in); got != c.want {
			t.Errorf("Limit(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// FuzzStoreVsMap interprets the input as a stream of markings (first
// byte: width 1..5 and whether hashes collide; then 2 bytes per word,
// so repeats are likely) and checks the store against the map oracle.
func FuzzStoreVsMap(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Add(append([]byte{0x84}, make([]byte, 200)...))
	seed := []byte{2}
	for i := 0; i < 300; i++ {
		seed = binary.LittleEndian.AppendUint16(seed, uint16(i*i%97))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := int(data[0]&0x7f)%5 + 1
		hash := hashes["real"]
		if data[0]&0x80 != 0 {
			hash = hashes["16-way"]
		}
		var stream []petri.Marking
		for data = data[1:]; len(data) >= 2*w; data = data[2*w:] {
			m := make(petri.Marking, w)
			for i := range m {
				m[i] = uint64(binary.LittleEndian.Uint16(data[2*i:])) << uint(7*i)
			}
			stream = append(stream, m)
		}
		checkAgainst(t, stream, hash)
	})
}
