package cluster

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/petri"
)

// The wire bytes below were recorded at the commit before the shared
// codec (internal/codec) replaced this package's hand-rolled one. The
// wire format is frozen: a peer built from either side of that change
// must read the other's frames, so a diff here is a protocol break, not
// a test to update.
var goldenBatch = map[byte]string{
	frameExpand:  "000000270102" + "05" + goldenKey1 + "ac02" + goldenKey2,
	frameCollect: "000000270402" + goldenKey1 + "05" + goldenKey2 + "ac02",
}

const (
	goldenKey1       = "10efcdab89674523010100000000000080"
	goldenKey2       = "101032547698badcfe0200000000000080"
	goldenReplyVio   = "0000001402040001020304007f800180808080802001ac02"
	goldenReplyNoVio = "0000001202040001020304007f800180808080802000"
)

func goldenPairs() *batch {
	in := &batch{}
	in.add(petri.Marking{0x0123456789abcdef, 0x8000000000000001}, 5)
	in.add(petri.Marking{0xfedcba9876543210, 0x8000000000000002}, 300)
	return in
}

// TestWireGoldenBatch pins the exact bytes of one two-entry batch per
// bulk frame type, and that those bytes decode back to the entries.
func TestWireGoldenBatch(t *testing.T) {
	in := goldenPairs()
	for _, typ := range []byte{frameExpand, frameCollect} {
		var buf bytes.Buffer
		if err := encodeBatch(&buf, typ, in); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != goldenBatch[typ] {
			t.Errorf("frame type %d:\n got %s\nwant %s", typ, got, goldenBatch[typ])
		}
		raw, _ := hex.DecodeString(goldenBatch[typ])
		out, err := decodeBatch(bytes.NewReader(raw), typ, in.w)
		if err != nil {
			t.Fatalf("frame type %d: decode golden: %v", typ, err)
		}
		sameBatch(t, in, out)
	}
}

// TestWireGoldenExpandReply pins the expand reply with and without a
// violation.
func TestWireGoldenExpandReply(t *testing.T) {
	for _, tc := range []struct {
		re   expandReply
		want string
	}{
		{expandReply{flags: []byte{0, flagDead, flagBad, flagDead | flagBad}, orders: []uint64{0, 127, 128, 1 << 40}, vioOrder: 300, hasVio: true}, goldenReplyVio},
		{expandReply{flags: []byte{0, flagDead, flagBad, flagDead | flagBad}, orders: []uint64{0, 127, 128, 1 << 40}}, goldenReplyNoVio},
	} {
		var buf bytes.Buffer
		if err := codec.WriteFrame(&buf, frameExpandRe, tc.re.payload()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
			t.Errorf("hasVio=%v:\n got %s\nwant %s", tc.re.hasVio, got, tc.want)
		}
		raw, _ := hex.DecodeString(tc.want)
		out, err := decodeExpandReply(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("hasVio=%v: decode golden: %v", tc.re.hasVio, err)
		}
		if !reflect.DeepEqual(*out, tc.re) {
			t.Errorf("hasVio=%v: decoded %+v, want %+v", tc.re.hasVio, *out, tc.re)
		}
	}
}
