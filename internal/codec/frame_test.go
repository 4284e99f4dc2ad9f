package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestFrameStreamAndImage pins that the stream reader and the image
// splitter agree on every prefix of a two-frame stream: a clean boundary
// is io.EOF (an empty rest), anything cut short is ErrTornFrame.
func TestFrameStreamAndImage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 'A', []byte("payload")); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := WriteFrame(&buf, 'B', nil); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if want := []byte{0, 0, 0, 8, 'A', 'p', 'a', 'y', 'l', 'o', 'a', 'd', 0, 0, 0, 1, 'B'}; !bytes.Equal(whole, want) {
		t.Fatalf("stream % x, want % x", whole, want)
	}
	for cut := 0; cut <= len(whole); cut++ {
		r := bytes.NewReader(whole[:cut])
		img := whole[:cut]
		for _, want := range []struct {
			typ     byte
			payload string
			end     int
		}{{'A', "payload", first}, {'B', "", len(whole)}} {
			typ, payload, err := ReadFrame(r, 64)
			ityp, ipayload, rest, ierr := SplitFrame(img, 64)
			if cut >= want.end {
				if err != nil || ierr != nil || typ != want.typ || ityp != want.typ ||
					string(payload) != want.payload || string(ipayload) != want.payload {
					t.Fatalf("cut %d frame %q: stream (%q %q %v), image (%q %q %v)", cut, want.typ, typ, payload, err, ityp, ipayload, ierr)
				}
				img = rest
				continue
			}
			if len(img) == 0 {
				if err != io.EOF {
					t.Fatalf("cut %d at a frame boundary: %v, want io.EOF", cut, err)
				}
			} else if !errors.Is(err, ErrTornFrame) || !errors.Is(ierr, ErrTornFrame) {
				t.Fatalf("cut %d inside frame %q: stream %v, image %v, want ErrTornFrame", cut, want.typ, err, ierr)
			}
			break
		}
	}
}

// TestFrameLengthField pins that a hostile length field is rejected
// before any allocation happens, for both readers.
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
		if _, _, err := ReadFrame(bytes.NewReader(tc.raw), tc.max); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadFrame: %v, want %v", tc.label, err, tc.want)
		}
		if _, _, _, err := SplitFrame(tc.raw, tc.max); !errors.Is(err, tc.want) {
			t.Errorf("%s: SplitFrame: %v, want %v", tc.label, err, tc.want)
		}
	}
}
