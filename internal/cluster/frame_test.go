package cluster

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
)

// tableOneMarkings returns real markings of one Table 1 net: the
// initial marking and its successors, giving the fuzzer realistic seeds
// (little-endian bitset words).
func tableOneMarkings(t testing.TB, family string, size int) []petri.Marking {
	t.Helper()
	n, err := models.ByName(family, size)
	if err != nil {
		t.Fatalf("models.ByName(%s,%d): %v", family, size, err)
	}
	m := n.InitialMarking()
	out := []petri.Marking{m}
	for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
		if n.Enabled(m, tr) {
			if next, safe := n.Fire(m, tr); safe {
				out = append(out, next)
			}
		}
	}
	return out
}

func sameBatch(t *testing.T, in, out *batch) {
	t.Helper()
	if out.len() != in.len() {
		t.Fatalf("round trip %d entries -> %d", in.len(), out.len())
	}
	for i := range in.vals {
		if !out.marking(i).Equal(in.marking(i)) || out.vals[i] != in.vals[i] {
			t.Fatalf("entry %d: (%v, %d) -> (%v, %d)", i, in.marking(i), in.vals[i], out.marking(i), out.vals[i])
		}
	}
}

// FuzzFrameRoundTrip feeds arbitrary markings through the (key, value)
// wire codec of every bulk frame type: whatever encodes must decode to
// the same entries, decoding must consume the stream fully, every key on
// the wire is exactly Marking.Key(), and a reader expecting another
// marking width refuses the stream.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, spec := range []struct {
		family string
		size   int
	}{{"nsdp", 4}, {"rw", 6}, {"over", 3}, {"asat", 8}} {
		for i, m := range tableOneMarkings(f, spec.family, spec.size) {
			f.Add([]byte(m.Key()), uint64(i)<<32|uint64(i))
		}
	}
	f.Add([]byte{}, uint64(0))
	f.Add(make([]byte, 304), ^uint64(0))
	f.Fuzz(func(t *testing.T, key []byte, val uint64) {
		m, ok := petri.MarkingFromKeyBytes(string(key[:len(key)&^7]))
		if !ok {
			m = petri.Marking{}
		}
		in := &batch{w: len(m)}
		in.add(m, val)
		in.add(m, val/2)
		for _, typ := range []byte{frameExpand, frameIntern, frameCollect, frameCommit} {
			var buf bytes.Buffer
			if err := encodeBatch(&buf, typ, in); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Contains(buf.Bytes(), []byte(m.Key())) {
				t.Fatalf("frame type %d does not carry Marking.Key() verbatim", typ)
			}
			whole := append([]byte(nil), buf.Bytes()...)
			out, err := decodeBatch(&buf, typ, in.w, MaxFrame)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			sameBatch(t, in, out)
			if _, err := decodeBatch(bytes.NewReader(whole), typ, in.w+1, MaxFrame); err == nil {
				t.Fatalf("frame type %d: a %d-word reader accepted %d-word keys", typ, in.w+1, in.w)
			}
		}
	})
}

// TestFrameChunking pins that a batch larger than one chunk round-trips
// through multiple frames in one stream.
func TestFrameChunking(t *testing.T) {
	ms := tableOneMarkings(t, "asat", 8)
	in := &batch{w: len(ms[0])}
	for i := 0; i < 3*chunkEntries+17; i++ {
		in.add(ms[i%len(ms)], uint64(i))
	}
	var buf bytes.Buffer
	if err := encodeBatch(&buf, frameIntern, in); err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(&buf, frameIntern, in.w, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	sameBatch(t, in, out)
}

// TestTornFrameRejected pins the wire-level analogue of the ledger's
// torn-tail handling: a stream cut inside a frame fails with
// ErrTornFrame at every cut point, and a clean boundary returns io.EOF.
func TestTornFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	m := tableOneMarkings(t, "nsdp", 4)[0]
	in := &batch{w: len(m)}
	in.add(m, 42)
	if err := encodeBatch(&buf, frameIntern, in); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, err := decodeBatch(bytes.NewReader(whole[:cut]), frameIntern, in.w, MaxFrame)
		if cut < 5 {
			// Cut inside the header or the frame body: torn.
			if !errors.Is(err, ErrTornFrame) {
				t.Fatalf("cut at %d: want ErrTornFrame, got %v", cut, err)
			}
		} else if err == nil {
			t.Fatalf("cut at %d: truncated frame decoded successfully", cut)
		}
	}
	// The full stream ends with a clean io.EOF inside the decoder loop.
	if _, err := decodeBatch(bytes.NewReader(whole), frameIntern, in.w, MaxFrame); err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	// A raw readFrame on an empty stream is a clean boundary.
	if _, _, err := ReadFrame(bytes.NewReader(nil), MaxFrame); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

// TestOversizedFrameRejected pins that a hostile length field is
// rejected before any allocation happens.
func TestOversizedFrameRejected(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, frameIntern}
	_, _, err := ReadFrame(bytes.NewReader(raw), MaxFrame)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// At exactly the limit the frame is only torn (no body follows), not
	// oversized.
	at := []byte{0x00, 0x00, 0x00, 0x10, frameIntern}
	if _, _, err := ReadFrame(bytes.NewReader(at), 16); !errors.Is(err, ErrTornFrame) {
		t.Fatalf("at-limit header: want ErrTornFrame, got %v", err)
	}
	// A zero-length frame cannot even carry its type byte.
	zero := []byte{0x00, 0x00, 0x00, 0x00}
	if _, _, err := ReadFrame(bytes.NewReader(zero), 16); !errors.Is(err, ErrTornFrame) {
		t.Fatalf("zero-length: want ErrTornFrame, got %v", err)
	}
}
