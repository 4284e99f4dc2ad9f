// Package ckpt implements ckpt/v3, the durable on-disk checkpoint
// container for verification jobs (DESIGN.md D11).
//
// A checkpoint file is an 8-byte magic and a sequence of internal/codec
// frames: a header frame carrying the format version, the interned state
// count and the run's RunKey pre-image (verify.AppendRunKey: the net,
// the check and every result-determining option, the exact bytes the
// run's content address hashes); for exhaustive snapshots one
// engine-state frame stating the marking width once, then the markings
// in id order as consecutive segments of raw words; for GPO snapshots
// one engine-state frame embedding the algebra's family blob; and a
// footer frame with the SHA-256 digest of everything before it.
//
// The format is torn-tail-safe and refuses silent resume: a truncated
// tail surfaces as ErrTorn (the footer never arrived or a frame is
// cut), any bit flip surfaces as ErrCorrupt (digest mismatch, or a
// frame that does not decode canonically), a wrong file as ErrBadMagic,
// and another format version — ckpt/v1 or v2, or a RunKey pre-image of
// another verify.RunKeyFormat — as ErrUnsupported. Files are written to
// a temp name and renamed into place, so a crash during Write never
// leaves a partial file under the final name.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/petri"
	"repro/internal/verify"
)

// Typed failure modes. Callers gate on these; none of them is ever a
// silent fallback to a fresh run.
var (
	// ErrBadMagic reports a file that is not a checkpoint container.
	ErrBadMagic = errors.New("ckpt: not a checkpoint file")
	// ErrUnsupported reports a container version this build cannot read.
	ErrUnsupported = errors.New("ckpt: unsupported checkpoint format version")
	// ErrTorn reports a truncated tail: the file ends mid-frame or
	// before the footer. The checkpoint was cut by a crash mid-write.
	ErrTorn = errors.New("ckpt: torn checkpoint (truncated tail)")
	// ErrCorrupt reports content damage: a digest mismatch, or a frame
	// that does not decode.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
	// ErrKeyMismatch reports a structurally valid checkpoint for a
	// different run than the caller asked to resume.
	ErrKeyMismatch = errors.New("ckpt: checkpoint is for a different run")
)

// magic is the 8-byte file preamble, outside the frame stream. It names
// the container; the version is the header frame's first field.
var magic = [8]byte{'G', 'P', 'O', 'C', 'K', 'P', 'T', '1'}

// version is the container format version in the header frame. v3
// builds a GPO snapshot's families under structural.TransitionOrder's
// level order; a v2 file's blob was built under the identity order.
const version = 3

// Frame types.
const (
	frameHeader byte = 'H'
	frameStates byte = 'S'
	frameReach  byte = 'R'
	frameCore   byte = 'C'
	frameFooter byte = 'Z'
)

// maxFrame caps a single checkpoint frame; exhaustive markings travel in
// segments of about segmentBytes, and GPO family blobs are dominated by
// the deduplicated node table.
const maxFrame = 1 << 30

// File is one checkpoint: the run's identity and the engine snapshot at
// the boundary.
type File struct {
	Net   *petri.Net
	Check string // "deadlock" or "safety"
	Bad   []petri.Place
	// Opts holds the result-determining options (the RunKey subset); a
	// decoded File sets nothing else, runtime knobs (Ctx, Workers,
	// observers) are the caller's to add.
	Opts verify.Options
	// Snap is the engine snapshot (exactly one member set).
	Snap *verify.EngineSnapshot
}

// Key returns the run's content address, verify.RunKey.
func (f *File) Key() verify.Key { return verify.RunKey(f.Net, f.Check, f.Bad, f.Opts) }

// Boundary returns the snapshot's deterministic resume coordinate.
func (f *File) Boundary() int64 { return f.Snap.Boundary() }

// States returns the snapshot's interned state count.
func (f *File) States() int { return f.Snap.States() }

// Write serializes f into path atomically: the container is assembled
// next to the target and renamed over it only after a successful sync.
func Write(path string, f *File) (err error) {
	img, err := Encode(f)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(img); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Encode serializes f to the ckpt/v3 container image in memory — the
// exact bytes Write places on disk. Replay uses it to compare a
// re-executed prefix against a stored checkpoint bit for bit.
func Encode(f *File) ([]byte, error) {
	if f.Snap == nil || (f.Snap.Reach == nil) == (f.Snap.Core == nil) {
		return nil, fmt.Errorf("ckpt: exactly one engine snapshot must be set")
	}
	// magic[:] has no spare capacity, so the first append copies it.
	img := codec.AppendFrame(magic[:], frameHeader, encodeHeader(f))
	if sn := f.Snap.Reach; sn != nil {
		if len(sn.States) == 0 {
			return nil, fmt.Errorf("ckpt: exhaustive snapshot has no states")
		}
		words := len(sn.States[0])
		img = codec.AppendFrame(img, frameReach, encodeReach(sn, words))
		var err error
		if img, err = appendStates(img, sn.States, words); err != nil {
			return nil, err
		}
	} else {
		img = codec.AppendFrame(img, frameCore, encodeCore(f.Snap.Core))
	}
	// The footer frame carries the digest of every frame before it.
	digest := sha256.Sum256(img[len(magic):])
	return codec.AppendFrame(img, frameFooter, digest[:]), nil
}

// Read decodes and fully validates the checkpoint at path.
func Read(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// ReadFor reads the checkpoint and additionally requires it to belong
// to the given run, returning ErrKeyMismatch otherwise.
func ReadFor(path string, key verify.Key) (*File, error) {
	f, err := Read(path)
	if err != nil {
		return nil, err
	}
	if got := f.Key(); got != key {
		return nil, fmt.Errorf("%w: file has %s, want %s", ErrKeyMismatch, got.RunID(), key.RunID())
	}
	return f, nil
}

// Decode parses a complete container image. Every failure mode maps to
// one of the typed errors; a checkpoint never silently degrades.
//
// The image is walked frame by frame from memory, where a file's
// truncation semantics are sharper than a stream's: a length prefix
// promising more bytes than the file holds IS the torn tail (and so is a
// zero one, what a never-flushed block reads as), while a length beyond
// maxFrame is damage. The digest accumulates over every frame before
// the footer.
func Decode(b []byte) (*File, error) {
	if len(b) < len(magic) || !bytes.Equal(b[:len(magic)], magic[:]) {
		return nil, ErrBadMagic
	}
	stream := b[len(magic):]
	digest := sha256.New()

	var f *File
	var states, words int // header state count; marking width of a reach snapshot
	var footerDigest []byte
	var haveFooter bool

	for len(stream) > 0 {
		typ, payload, rest, err := codec.SplitFrame(stream, maxFrame)
		if errors.Is(err, codec.ErrTornFrame) {
			return nil, fmt.Errorf("%w: %v", ErrTorn, err)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if typ != frameFooter {
			digest.Write(stream[:len(stream)-len(rest)])
		}
		stream = rest
		if haveFooter {
			return nil, fmt.Errorf("%w: frames after footer", ErrCorrupt)
		}
		switch {
		case typ == frameHeader && f == nil:
			if f, states, err = decodeHeader(payload); err != nil {
				return nil, err
			}
		case typ == frameReach && f != nil && f.Snap == nil:
			sn, w, err := decodeReach(payload)
			if err != nil {
				return nil, err
			}
			words = w
			// D13's count guard: every state is words·8 bytes of the
			// segments still to come, so the table is sized by what the
			// stream can hold, never by what a damaged header claims.
			sn.States = make([]petri.Marking, 0, min(states, len(stream)/(8*words)))
			f.Snap = &verify.EngineSnapshot{Reach: sn}
		case typ == frameStates && f != nil && f.Snap != nil && f.Snap.Reach != nil:
			sn := f.Snap.Reach
			if sn.States, err = decodeStates(payload, words, sn.States, states); err != nil {
				return nil, err
			}
		case typ == frameCore && f != nil && f.Snap == nil:
			sn, err := decodeCore(payload)
			if err != nil {
				return nil, err
			}
			f.Snap = &verify.EngineSnapshot{Core: sn}
		case typ == frameFooter:
			haveFooter = true
			footerDigest = payload
		default:
			return nil, fmt.Errorf("%w: unexpected frame type %q", ErrCorrupt, typ)
		}
	}
	if !haveFooter {
		return nil, fmt.Errorf("%w: footer missing", ErrTorn)
	}
	if f == nil || f.Snap == nil {
		return nil, fmt.Errorf("%w: incomplete container", ErrCorrupt)
	}
	if got := f.States(); got != states {
		return nil, fmt.Errorf("%w: engine has %d states, header says %d", ErrCorrupt, got, states)
	}
	// Digest check: the hash was accumulated over every frame before the
	// footer exactly as written.
	if !bytes.Equal(digest.Sum(nil), footerDigest) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrCorrupt)
	}
	return f, nil
}
