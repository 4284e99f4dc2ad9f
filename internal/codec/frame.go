package codec

// The frame: 4-byte big-endian length, 1 type byte, payload. The length
// covers the type byte and the payload, so a zero-payload frame has
// length 1 and a zero length is never valid. The cluster wire protocol
// reads frames off a stream (ReadFrame); the checkpoint container walks
// them in a file image (SplitFrame), where a length that promises more
// bytes than the image holds is known to be a torn tail without reading —
// or allocating for — what is not there.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrFrameTooLarge is returned for a frame whose declared length exceeds
// the reader's limit, before anything is allocated for it.
var ErrFrameTooLarge = errors.New("codec: frame exceeds size limit")

// ErrTornFrame is returned when the input ends inside a frame header or
// body, or a frame declares the impossible length zero.
var ErrTornFrame = errors.New("codec: torn frame")

// WriteFrame emits one frame.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameLen validates a frame's length field against the limit.
func frameLen(hdr []byte, max int) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, fmt.Errorf("%w: zero-length frame", ErrTornFrame)
	}
	if int64(n) > int64(max) {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	return int(n), nil
}

// ReadFrame reads one frame from a stream, rejecting declared lengths
// above max. A clean EOF at a frame boundary returns io.EOF; an EOF
// inside a frame returns ErrTornFrame.
func ReadFrame(r io.Reader, max int) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	n, err := frameLen(hdr[:], max)
	if err != nil {
		return 0, nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrTornFrame, err)
	}
	return body[0], body[1:], nil
}

// SplitFrame cuts the first frame off an in-memory image: payload is a
// view into b and rest is what follows the frame. The length field is
// checked against max before it is checked against len(b), so an
// implausible length is ErrFrameTooLarge even when the image is short.
func SplitFrame(b []byte, max int) (typ byte, payload, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, fmt.Errorf("%w: image ends inside a frame header", ErrTornFrame)
	}
	n, err := frameLen(b, max)
	if err != nil {
		return 0, nil, nil, err
	}
	if n > len(b)-4 {
		return 0, nil, nil, fmt.Errorf("%w: frame of %d bytes, %d remain", ErrTornFrame, n, len(b)-4)
	}
	return b[4], b[5 : 4+n], b[4+n:], nil
}
