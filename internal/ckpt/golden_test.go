package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"testing"
)

// v1Fixtures are the ckpt/v1 images of one exhaustive and one GPO
// checkpoint, frozen under testdata/ with the digests recorded at the
// commit before the shared codec (internal/codec) replaced this
// package's hand-rolled one.
var v1Fixtures = []struct {
	path string
	want string
}{
	{"testdata/v1-reach.ckpt", "0a5d37b51e5f64f80bae1c92fa7f66c442716bc05fd6f9e313cf1120fe51f7f2"},
	{"testdata/v1-core.ckpt", "c296e60931684c1b0e6b8728ae0c1baf762b5581cbd9a61ec46511f2c7f24e01"},
}

// TestV1Fixtures pins the frozen ckpt/v1 files against their recorded
// digests — they are the files older builds wrote — and that this build
// refuses them as another format version: there is no v1 reader.
func TestV1Fixtures(t *testing.T) {
	for _, fx := range v1Fixtures {
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

// TestEncodeGolden pins the ckpt/v2 container image of one exhaustive
// and one GPO checkpoint (the cases frozen in v1Fixtures) by digest: the
// on-disk format is frozen, so a mismatch means files written by older
// builds no longer resume. A deliberate format change bumps `version`
// instead.
func TestEncodeGolden(t *testing.T) {
	cases := ckptCases()
	for _, g := range []struct {
		tc   ckptCase
		want string
	}{
		{cases[0], "ef47f19a855c42bbcffd6dc92395d4cdda1fa10f45ee88608f72c4a3a087fad3"},
		{cases[3], "56e958ed75e6575be60270ca036ffbfe290e9a9ef94ab1d273cc81f5b0bb450d"},
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
