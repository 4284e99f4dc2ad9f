package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestEncodeGolden pins the ckpt/v1 container image of one exhaustive
// and one GPO checkpoint by digest. The values were recorded at the
// commit before the shared codec (internal/codec) replaced this
// package's hand-rolled one: the on-disk format is frozen, so a
// mismatch means files written by older builds no longer resume. A
// deliberate format change bumps `version` instead.
func TestEncodeGolden(t *testing.T) {
	cases := ckptCases()
	for _, g := range []struct {
		tc   ckptCase
		want string
	}{
		{cases[0], "0a5d37b51e5f64f80bae1c92fa7f66c442716bc05fd6f9e313cf1120fe51f7f2"},
		{cases[3], "c296e60931684c1b0e6b8728ae0c1baf762b5581cbd9a61ec46511f2c7f24e01"},
	} {
		f := capture(t, g.tc.net, g.tc.check, g.tc.bad, g.tc.opts, g.tc.at)
		img, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s: image digest %s, want %s", g.tc.label, got, g.want)
		}
	}
}
