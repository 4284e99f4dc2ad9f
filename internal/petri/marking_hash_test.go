package petri

import (
	"testing"
)

// buildWideNet returns a net with enough places for a multi-word
// marking, with an alternating bit pattern marked.
func buildWideNet(tb testing.TB, places int) (*Net, Marking) {
	tb.Helper()
	b := NewBuilder("wide")
	ps := make([]Place, places)
	for i := range ps {
		ps[i] = b.Place("p" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)))
	}
	b.TransArcs("t", []Place{ps[0]}, []Place{ps[len(ps)-1]})
	b.Mark(ps[0])
	n, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	m := n.EmptyMarking()
	for i := 0; i < places; i += 3 {
		m.Set(ps[i])
	}
	return n, m
}

// TestHashMatchesKey pins what the visited store needs of Hash: equal
// words hash equal, whichever slice holds them, and KeyHash returns the
// pair (Key(), Hash()).
func TestHashMatchesKey(t *testing.T) {
	for _, places := range []int{1, 7, 64, 65, 200} {
		n, m := buildWideNet(t, places)
		key, hash := m.KeyHash()
		if key != m.Key() || hash != m.Hash() {
			t.Errorf("places=%d: KeyHash differs from (Key(), Hash())", places)
		}
		same := n.EmptyMarking()
		copy(same, m)
		if same.Hash() != hash || m.Clone().Hash() != hash {
			t.Errorf("places=%d: equal words hash %x, %x and %x", places, same.Hash(), m.Clone().Hash(), hash)
		}
	}
}

// BenchmarkMarkingHash measures what interning a marking costs before
// the table probe: the string route explorers used to take (build the
// key beside the hash) against Hash over the words.
func BenchmarkMarkingHash(b *testing.B) {
	_, m := buildWideNet(b, 192) // 3 words, a mid-size Table 1 marking
	b.Run("key-then-hash", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			key, hash := m.KeyHash()
			sink += hash + uint64(len(key))
		}
		_ = sink
	})
	b.Run("hash-words", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += m.Hash()
		}
		_ = sink
	})
}
