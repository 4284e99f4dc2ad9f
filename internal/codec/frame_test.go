package codec

import (
	"bytes"
	"errors"
	"testing"
)

// TestFrameStreamAndImage pins the frame bytes AppendFrame writes and
// that the image splitter reads every prefix of a two-frame image: a
// clean boundary leaves an empty rest, anything cut short is
// ErrTornFrame.
func TestFrameStreamAndImage(t *testing.T) {
	whole := AppendFrame(nil, 'A', []byte("payload"))
	first := len(whole)
	whole = AppendFrame(whole, 'B', nil)
	if want := []byte{0, 0, 0, 8, 'A', 'p', 'a', 'y', 'l', 'o', 'a', 'd', 0, 0, 0, 1, 'B'}; !bytes.Equal(whole, want) {
		t.Fatalf("image % x, want % x", whole, want)
	}
	for cut := 0; cut <= len(whole); cut++ {
		img := whole[:cut]
		for _, want := range []struct {
			typ     byte
			payload string
			end     int
		}{{'A', "payload", first}, {'B', "", len(whole)}} {
			typ, payload, rest, err := SplitFrame(img, 64)
			if cut >= want.end {
				if err != nil || typ != want.typ || string(payload) != want.payload {
					t.Fatalf("cut %d frame %q: (%q %q %v)", cut, want.typ, typ, payload, err)
				}
				img = rest
				continue
			}
			if len(img) > 0 && !errors.Is(err, ErrTornFrame) {
				t.Fatalf("cut %d inside frame %q: %v, want ErrTornFrame", cut, want.typ, err)
			}
			break
		}
	}
}

// TestFrameLengthField pins that a hostile length field is rejected
// before any allocation happens.
func TestFrameLengthField(t *testing.T) {
	for _, tc := range []struct {
		label string
		raw   []byte
		max   int
		want  error
	}{
		{"oversized", []byte{0xFF, 0xFF, 0xFF, 0xFF, 'A'}, 64 << 20, ErrFrameTooLarge},
		// At exactly the limit the frame is only torn (no body follows).
		{"at the limit", []byte{0, 0, 0, 0x10, 'A'}, 16, ErrTornFrame},
		{"one above the limit", []byte{0, 0, 0, 0x11, 'A'}, 16, ErrFrameTooLarge},
		// A zero-length frame cannot even carry its type byte.
		{"zero length", []byte{0, 0, 0, 0}, 16, ErrTornFrame},
	} {
		if _, _, _, err := SplitFrame(tc.raw, tc.max); !errors.Is(err, tc.want) {
			t.Errorf("%s: SplitFrame: %v, want %v", tc.label, err, tc.want)
		}
	}
}
