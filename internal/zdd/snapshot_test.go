package zdd

import (
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/tset"
)

const goldenBlob = "c80106c70100010300020101010004038101000180010006050507000501"

// TestEncodeFamiliesGolden pins the ZDD family snapshot blob. The bytes
// were recorded before the shared codec (internal/codec) replaced this
// package's private reader; they are embedded in ckpt/v3 GPO
// checkpoints, so the format is frozen.
func TestEncodeFamiliesGolden(t *testing.T) {
	const n = 200
	a := NewAlgebra(n)
	f := a.FromSets([]tset.TSet{tset.Of(n, 0, 3, 199), tset.Of(n, 1), tset.New(n)})
	g := a.FromSets([]tset.TSet{tset.Of(n, 128, 129)})
	roots := []Node{f, g, a.Empty(), f, Top}
	blob := a.EncodeFamilies(roots)
	if got := hex.EncodeToString(blob); got != goldenBlob {
		t.Fatalf("blob\n got %s\nwant %s", got, goldenBlob)
	}
	// Decoding onto a fresh manager reproduces the same families.
	b := NewAlgebra(n)
	back, err := b.DecodeFamilies(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(roots) {
		t.Fatalf("decoded %d roots, want %d", len(back), len(roots))
	}
	for i, r := range roots {
		want := a.Enumerate(r, 0)
		got := b.Enumerate(back[i], 0)
		if len(got) != len(want) {
			t.Fatalf("root %d: %d sets, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j].Equal(want[j]) {
				t.Errorf("root %d set %d: %v != %v", i, j, got[j], want[j])
			}
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
	// Universe 4, nodes #2 = (1,⊥,⊤) and #3 = (3,⊥,#2), root #3: every
	// reference points backwards, but the child tests an element above
	// its parent's. Decoded, Count says one set and Contains({1,3}) false.
	outOfOrder := []byte{4, 2, 1, 0, 1, 3, 0, 2, 1, 3}
	if _, err := NewAlgebra(4).DecodeFamilies(outOfOrder); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("child above its parent: %v, want ErrBadSnapshot", err)
	}
}
