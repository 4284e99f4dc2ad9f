package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"testing"
)

// oldFixtures are the images of one exhaustive and one GPO checkpoint in
// earlier format versions, frozen under testdata/: the ckpt/v1 files
// with the digests recorded at the commit before the shared codec
// (internal/codec) replaced this package's hand-rolled one, and the
// ckpt/v2 files with the digests TestEncodeGolden pinned until v3.
var oldFixtures = []struct {
	path string
	want string
}{
	{"testdata/v1-reach.ckpt", "0a5d37b51e5f64f80bae1c92fa7f66c442716bc05fd6f9e313cf1120fe51f7f2"},
	{"testdata/v1-core.ckpt", "c296e60931684c1b0e6b8728ae0c1baf762b5581cbd9a61ec46511f2c7f24e01"},
	{"testdata/v2-reach.ckpt", "ef47f19a855c42bbcffd6dc92395d4cdda1fa10f45ee88608f72c4a3a087fad3"},
	{"testdata/v2-core.ckpt", "56e958ed75e6575be60270ca036ffbfe290e9a9ef94ab1d273cc81f5b0bb450d"},
}

// TestV1Fixtures pins the frozen ckpt/v1 and v2 files against their
// recorded digests — they are the files older builds wrote — and that
// this build refuses them as another format version: there is no reader
// for either.
func TestV1Fixtures(t *testing.T) {
	for _, fx := range oldFixtures {
		img, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); got != fx.want {
			t.Errorf("%s: digest %s, want %s", fx.path, got, fx.want)
		}
		if _, err := Decode(img); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: Decode = %v, want ErrUnsupported", fx.path, err)
		}
	}
}

// TestEncodeGolden pins the ckpt/v3 container image of one exhaustive
// and one GPO checkpoint (the cases frozen in oldFixtures) by digest:
// the on-disk format is frozen, so a mismatch means files written by
// older builds no longer resume. A deliberate format change bumps
// `version` instead.
func TestEncodeGolden(t *testing.T) {
	cases := ckptCases()
	for _, g := range []struct {
		tc   ckptCase
		want string
	}{
		{cases[0], "3de51fa73768511d9466427fc8320eb2be5cd982735fb9e96beb1c5792c8133b"},
		{cases[3], "09eab5ba75ff635d3ff31978c686a459baadf5a84de86d9d58aab1aa7f824614"},
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
