package ckpt

import (
	"crypto/sha256"
	"testing"

	"repro/internal/codec"
	"repro/internal/verify"
)

// FuzzCkptRead throws arbitrary bytes at Decode. The invariant under
// fuzz is the package's contract: Decode never panics, never returns an
// untyped error, and a successful decode always yields a complete,
// internally consistent File — there is no input that silently resumes
// as something else (satellite: checkpoint reader hardening).
//
// The corpus is seeded with real containers of both kinds plus the
// classic damage shapes (torn tail, bit flip, wrong magic), so the
// fuzzer starts from deep inside the format instead of bouncing off the
// magic check.
func FuzzCkptRead(f *testing.F) {
	cases := ckptCases()
	reachImg := image(f, cases[0])
	coreImg := image(f, cases[5])
	f.Add(reachImg)
	f.Add(coreImg)
	f.Add(reachImg[:len(reachImg)/2]) // torn tail
	f.Add(coreImg[:len(coreImg)-1])   // footer cut by one byte
	flipped := append([]byte(nil), reachImg...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(magic[:])
	f.Add([]byte("GPOCKPT2 wrong magic"))

	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			if !typedErr(err) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		// A successful decode must be a complete checkpoint.
		if file.Net == nil || file.Snap == nil {
			t.Fatalf("decoded File is incomplete: %+v", file)
		}
		if (file.Snap.Reach == nil) == (file.Snap.Core == nil) {
			t.Fatal("decoded File does not have exactly one engine snapshot")
		}
		if file.Boundary() < 0 || file.States() <= 0 {
			t.Fatalf("decoded File has impossible coordinates: boundary %d, states %d",
				file.Boundary(), file.States())
		}
		// The decoded content must hash to its own header key: the key
		// of the decoded run is the SHA-256 of the pre-image the header
		// stores (DecodeRunKey refuses any other; re-assert so the
		// invariant survives refactors).
		if verify.Key(sha256.Sum256(headerKey(t, data))) != file.Key() {
			t.Fatal("decoded File fails its own RunKey self-check")
		}
	})
}

// headerKey returns the RunKey pre-image a container's header frame
// stores, after the format version and the state count.
func headerKey(t *testing.T, img []byte) []byte {
	_, payload, _, err := codec.SplitFrame(img[len(magic):], maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	d := codec.NewDec(payload)
	d.Uvarint()
	d.Int()
	key := d.Bytes()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	return key
}
