package codec

// The frame: 4-byte big-endian length, 1 type byte, payload. The length
// covers the type byte and the payload, so a zero-payload frame has
// length 1 and a zero length is never valid. The checkpoint container
// appends frames to its image (AppendFrame) and walks them back out of
// the file image (SplitFrame), where a length that promises more bytes
// than the image holds is known to be a torn tail without reading — or
// allocating for — what is not there.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrFrameTooLarge is returned for a frame whose declared length exceeds
// the reader's limit, before anything is allocated for it.
var ErrFrameTooLarge = errors.New("codec: frame exceeds size limit")

// ErrTornFrame is returned when the input ends inside a frame header or
// body, or a frame declares the impossible length zero.
var ErrTornFrame = errors.New("codec: torn frame")

// AppendFrame appends one frame to b.
func AppendFrame(b []byte, typ byte, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)+1))
	return append(append(b, typ), payload...)
}

// SplitFrame cuts the first frame off an in-memory image: payload is a
// view into b and rest is what follows the frame. The length field is
// checked against max before it is checked against len(b), so an
// implausible length is ErrFrameTooLarge even when the image is short.
func SplitFrame(b []byte, max int) (typ byte, payload, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, fmt.Errorf("%w: image ends inside a frame header", ErrTornFrame)
	}
	switch n := int64(binary.BigEndian.Uint32(b)); {
	case n == 0:
		return 0, nil, nil, fmt.Errorf("%w: zero-length frame", ErrTornFrame)
	case n > int64(max):
		return 0, nil, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	case n > int64(len(b)-4):
		return 0, nil, nil, fmt.Errorf("%w: frame of %d bytes, %d remain", ErrTornFrame, n, len(b)-4)
	default:
		return b[4], b[5 : 4+n], b[4+n:], nil
	}
}
