package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"repro/internal/codec"
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
// the wire is exactly Marking.Key(), a reader expecting another marking
// width refuses the stream, and so does any reader given payload bytes
// behind the last entry. The whole expand reply — reply frame, then the
// batch as collect frames — round-trips too. The raw fuzz bytes are also
// framed under every type and fed to every decoder, alone and behind a
// reply frame, which must fail cleanly.
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
	// Real payloads, so the hostile-bytes half starts inside the formats.
	for _, frame := range []string{goldenBatch[frameExpand], goldenBatch[frameCollect], goldenReplyVio} {
		raw, _ := hex.DecodeString(frame)
		f.Add(raw[5:], uint64(1))
	}
	f.Fuzz(func(t *testing.T, key []byte, val uint64) {
		m := petri.Marking{}
		for k := key; len(k) >= 8; k = k[8:] {
			m = append(m, binary.LittleEndian.Uint64(k))
		}
		in := &batch{w: len(m)}
		in.add(m, val)
		in.add(m, val/2)
		for _, typ := range []byte{frameExpand, frameCollect} {
			var buf bytes.Buffer
			if err := encodeBatch(&buf, typ, in); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Contains(buf.Bytes(), []byte(m.Key())) {
				t.Fatalf("frame type %d does not carry Marking.Key() verbatim", typ)
			}
			whole := append([]byte(nil), buf.Bytes()...)
			out, err := decodeBatch(&buf, typ, in.w)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			sameBatch(t, in, out)
			if _, err := decodeBatch(bytes.NewReader(whole), typ, in.w+1); err == nil {
				t.Fatalf("frame type %d: a %d-word reader accepted %d-word keys", typ, in.w+1, in.w)
			}
			grown := append(append([]byte(nil), whole...), 0)
			binary.BigEndian.PutUint32(grown, uint32(len(grown)-4)) // the frame claims the extra byte
			if _, err := decodeBatch(bytes.NewReader(grown), typ, in.w); !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("frame type %d: trailing payload byte: %v", typ, err)
			}
		}
		re := &expandReply{flags: key, orders: []uint64{val / 2, val}, vioOrder: val, hasVio: val&1 == 1}
		gotRe, gotNews, err := decodeExpandBody(re.body(in), in.w)
		if err != nil {
			t.Fatalf("expand body: %v", err)
		}
		if !bytes.Equal(gotRe.flags, re.flags) || !slices.Equal(gotRe.orders, re.orders) || gotRe.hasVio != re.hasVio || re.hasVio && gotRe.vioOrder != re.vioOrder {
			t.Fatalf("expand reply %+v -> %+v", *re, *gotRe)
		}
		sameBatch(t, in, gotNews)
		replyFrame, _ := hex.DecodeString(goldenReplyVio)
		// Hostile bytes: the raw input as the payload of a frame of every
		// type. The decoders answer with a value or an error, never a
		// panic, and never with more than the payload can account for.
		for typ := frameExpand; typ <= frameCollect; typ++ {
			var buf bytes.Buffer
			_ = codec.WriteFrame(&buf, typ, key)
			for w := range 3 {
				if out, err := decodeBatch(bytes.NewReader(buf.Bytes()), typ, w); err == nil && 8*len(out.words)+len(out.vals) > len(key) {
					t.Fatalf("frame type %d: %d words and %d values out of %d payload bytes", typ, len(out.words), len(out.vals), len(key))
				}
			}
			if re, err := decodeExpandReply(bytes.NewReader(buf.Bytes())); err == nil && len(re.flags)+len(re.orders) > len(key) {
				t.Fatalf("expand reply: %d flags and %d orders out of %d payload bytes", len(re.flags), len(re.orders), len(key))
			}
			behind := append(append([]byte(nil), replyFrame...), buf.Bytes()...)
			if _, news, err := decodeExpandBody(bytes.NewReader(behind), 1); err == nil && 8*len(news.words)+len(news.vals) > len(key) {
				t.Fatalf("expand body: %d words and %d values out of %d payload bytes", len(news.words), len(news.vals), len(key))
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
	if err := encodeBatch(&buf, frameCollect, in); err != nil {
		t.Fatal(err)
	}
	out, err := decodeBatch(&buf, frameCollect, in.w)
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
	if err := encodeBatch(&buf, frameCollect, in); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, err := decodeBatch(bytes.NewReader(whole[:cut]), frameCollect, in.w)
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
	if _, err := decodeBatch(bytes.NewReader(whole), frameCollect, in.w); err != nil {
		t.Fatalf("clean stream: %v", err)
	}
}

// TestHostileCounts is the regression pin for the one decoder that
// trusted a count off the wire: an expand reply claiming 2^62 (or a
// merely huge 2^33) orders used to reach make() and panic the
// coordinator, or ask it for 64 GiB. Every count is now checked against
// the bytes that remain before anything is allocated.
func TestHostileCounts(t *testing.T) {
	for _, orders := range []uint64{1 << 62, 1 << 33} {
		payload := codec.AppendBytes(nil, []byte{})
		payload = codec.AppendUvarint(payload, orders)
		var buf bytes.Buffer
		_ = codec.WriteFrame(&buf, frameExpandRe, payload)
		if _, err := decodeExpandReply(&buf); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("expand reply claiming %d orders: %v, want codec.ErrMalformed", orders, err)
		}
		buf.Reset()
		_ = codec.WriteFrame(&buf, frameCollect, codec.AppendUvarint(nil, orders))
		if _, err := decodeBatch(&buf, frameCollect, 1); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("batch claiming %d entries: %v, want codec.ErrMalformed", orders, err)
		}
	}
}

// TestStrictPayloads pins what the reply decoder refuses beyond
// truncation: a violation marker other than 0 or 1, payload bytes behind
// a complete reply (FuzzFrameRoundTrip does the same to batches), and a
// frame other than frameCollect behind the reply frame.
func TestStrictPayloads(t *testing.T) {
	good, _ := hex.DecodeString(goldenReplyVio)
	for label, mutate := range map[string]func(b []byte) []byte{
		"violation marker 2": func(b []byte) []byte { b[len(b)-3] = 2; return b },
		"trailing byte":      func(b []byte) []byte { b[3]++; return append(b, 0) },
	} {
		raw := mutate(append([]byte(nil), good...))
		if _, err := decodeExpandReply(bytes.NewReader(raw)); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%s: %v, want codec.ErrMalformed", label, err)
		}
	}
	// Behind the reply frame of a whole expand reply, only collect frames.
	body := bytes.NewBuffer(append([]byte(nil), good...))
	_ = encodeBatch(body, frameExpand, goldenPairs())
	if _, _, err := decodeExpandBody(body, 2); err == nil {
		t.Error("an expand body with an expand frame behind its reply decoded")
	}
}
