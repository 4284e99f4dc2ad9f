package family

import (
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/tset"
)

const goldenBlob = "c8010303000101030003c701010280018101000400010200"

// TestEncodeFamiliesGolden pins the explicit-family snapshot blob. The
// bytes were recorded before the shared codec (internal/codec) replaced
// this package's private reader; they are embedded in ckpt/v3 GPO
// checkpoints, so the format is frozen.
func TestEncodeFamiliesGolden(t *testing.T) {
	const n = 200
	a := NewAlgebra(n)
	f := a.FromSets([]tset.TSet{tset.Of(n, 0, 3, 199), tset.Of(n, 1), tset.New(n)})
	g := a.FromSets([]tset.TSet{tset.Of(n, 128, 129)})
	roots := []*Family{f, g, a.Empty(), f}
	blob := a.EncodeFamilies(roots)
	if got := hex.EncodeToString(blob); got != goldenBlob {
		t.Fatalf("blob\n got %s\nwant %s", got, goldenBlob)
	}
	back, err := a.DecodeFamilies(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(roots) {
		t.Fatalf("decoded %d roots, want %d", len(back), len(roots))
	}
	for i := range roots {
		if !back[i].Equal(roots[i]) {
			t.Errorf("root %d: %v != %v", i, back[i], roots[i])
		}
	}
}

// TestDecodeFamiliesHostile cuts and damages the golden blob at every
// byte: the decoder answers with families or ErrBadSnapshot, never a
// panic.
func TestDecodeFamiliesHostile(t *testing.T) {
	blob, _ := hex.DecodeString(goldenBlob)
	a := NewAlgebra(200)
	for i := range blob {
		if _, err := a.DecodeFamilies(blob[:i]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut at %d: %v, want ErrBadSnapshot", i, err)
		}
		for _, v := range []byte{0, 1, 0x7f, 0xff} {
			mut := append([]byte(nil), blob...)
			mut[i] = v
			if _, err := a.DecodeFamilies(mut); err != nil && !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("byte %d = %#x: untyped error %v", i, v, err)
			}
		}
	}
	if _, err := a.DecodeFamilies(append(blob, 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing byte: %v, want ErrBadSnapshot", err)
	}
}
