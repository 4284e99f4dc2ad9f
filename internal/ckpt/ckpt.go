// Package ckpt implements ckpt/v1, the durable on-disk checkpoint
// container for verification jobs (DESIGN.md D11).
//
// A checkpoint file is an 8-byte magic and a sequence of internal/codec
// frames: a header frame keyed by the run's content address
// (verify.RunKey) and carrying a complete, decodable encoding of the
// net, the check and every result-determining option; for exhaustive
// snapshots 256 visited-store shard segments
// (markings grouped by reach.ShardOf, the same partition the parallel
// explorer uses) plus one engine-state frame; for GPO snapshots one
// engine-state frame embedding the algebra's family blob; and a footer
// frame with the SHA-256 digest of everything before it.
//
// The format is torn-tail-safe and refuses silent resume: a truncated
// tail surfaces as ErrTorn (the footer never arrived or a frame is
// cut), any bit flip surfaces as ErrCorrupt (digest mismatch, or the
// decoded content no longer hashes to the header's RunKey), a wrong
// file as ErrBadMagic, and a future format as ErrUnsupported. Files
// are written to a temp name and renamed into place, so a crash during
// Write never leaves a partial file under the final name.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/petri"
	"repro/internal/verify"
)

// Typed failure modes. Callers gate on these; none of them is ever a
// silent fallback to a fresh run.
var (
	// ErrBadMagic reports a file that is not a ckpt/v1 container.
	ErrBadMagic = errors.New("ckpt: not a checkpoint file")
	// ErrUnsupported reports a container version this build cannot read.
	ErrUnsupported = errors.New("ckpt: unsupported checkpoint format version")
	// ErrTorn reports a truncated tail: the file ends mid-frame or
	// before the footer. The checkpoint was cut by a crash mid-write.
	ErrTorn = errors.New("ckpt: torn checkpoint (truncated tail)")
	// ErrCorrupt reports content damage: a digest mismatch, a frame
	// that does not decode, or content that no longer matches the
	// header's RunKey.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
	// ErrKeyMismatch reports a structurally valid checkpoint for a
	// different run than the caller asked to resume.
	ErrKeyMismatch = errors.New("ckpt: checkpoint is for a different run")
)

// magic is the 8-byte file preamble, outside the frame stream.
var magic = [8]byte{'G', 'P', 'O', 'C', 'K', 'P', 'T', '1'}

// version is the container format version in the header frame.
const version = 1

// Frame types.
const (
	frameHeader byte = 'H'
	frameShard  byte = 'S'
	frameReach  byte = 'R'
	frameCore   byte = 'C'
	frameFooter byte = 'Z'
)

// maxFrame caps a single checkpoint frame; the shard partition keeps
// exhaustive snapshots well under it, and GPO family blobs are
// dominated by the deduplicated node table.
const maxFrame = 1 << 30

// File is one decoded checkpoint: the run's identity (everything
// verify.RunKey hashes) plus the engine snapshot at the boundary.
type File struct {
	Key   verify.Key
	Check string // "deadlock" or "safety"
	Bad   []petri.Place
	Net   *petri.Net
	// Result-determining options, the RunKey subset.
	Engine      verify.Engine
	StopAtFirst bool
	Proviso     bool
	Reduce      bool
	MaxStates   int
	MaxNodes    int
	// Snap is the engine snapshot (exactly one member set).
	Snap *verify.EngineSnapshot
}

// Options reassembles the verify.Options subset the checkpoint pins.
// Runtime knobs (Ctx, Workers, observers) are the caller's to add.
func (f *File) Options() verify.Options {
	return verify.Options{
		Engine:      f.Engine,
		StopAtFirst: f.StopAtFirst,
		Proviso:     f.Proviso,
		Reduce:      f.Reduce,
		MaxStates:   f.MaxStates,
		MaxNodes:    f.MaxNodes,
	}
}

// Boundary returns the snapshot's deterministic resume coordinate.
func (f *File) Boundary() int64 { return f.Snap.Boundary() }

// States returns the snapshot's interned state count.
func (f *File) States() int { return f.Snap.States() }

// hashingWriter feeds every written byte into the running digest too.
type hashingWriter struct {
	w io.Writer
	h io.Writer
}

func (hw hashingWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	return n, err
}

// Write serializes f into path atomically: the container is assembled
// next to the target and renamed over it only after a successful sync.
func Write(path string, f *File) (err error) {
	if f.Snap == nil || (f.Snap.Reach == nil) == (f.Snap.Core == nil) {
		return fmt.Errorf("ckpt: exactly one engine snapshot must be set")
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = writeTo(tmp, f); err != nil {
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

// writeTo emits the full container to w.
func writeTo(w io.Writer, f *File) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	digest := sha256.New()
	hw := hashingWriter{w: w, h: digest}
	if err := codec.WriteFrame(hw, frameHeader, encodeHeader(f)); err != nil {
		return err
	}
	if sn := f.Snap.Reach; sn != nil {
		for _, payload := range encodeShards(sn) {
			if err := codec.WriteFrame(hw, frameShard, payload); err != nil {
				return err
			}
		}
		if err := codec.WriteFrame(hw, frameReach, encodeReach(sn)); err != nil {
			return err
		}
	} else {
		if err := codec.WriteFrame(hw, frameCore, encodeCore(f.Snap.Core)); err != nil {
			return err
		}
	}
	// The footer frame carries the digest of every frame before it and
	// is excluded from its own hash (written to w, not hw).
	return codec.WriteFrame(w, frameFooter, digest.Sum(nil))
}

// Encode serializes f to the ckpt/v1 container image in memory — the
// exact bytes Write would place on disk. Replay uses it to compare a
// re-executed prefix against a stored checkpoint bit for bit.
func Encode(f *File) ([]byte, error) {
	if f.Snap == nil || (f.Snap.Reach == nil) == (f.Snap.Core == nil) {
		return nil, fmt.Errorf("ckpt: exactly one engine snapshot must be set")
	}
	var buf bytes.Buffer
	if err := writeTo(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
	if f.Key != key {
		return nil, fmt.Errorf("%w: file has %s, want %s", ErrKeyMismatch, f.Key.RunID(), key.RunID())
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
	size := len(stream)
	digest := sha256.New()

	var f *File
	var headerStates int
	var shardStates []petri.Marking
	var shardSeen int
	var footerDigest []byte
	var haveEngine, haveFooter bool

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
		switch typ {
		case frameHeader:
			if f != nil {
				return nil, fmt.Errorf("%w: duplicate header", ErrCorrupt)
			}
			f, headerStates, err = decodeHeader(payload)
			if err != nil {
				return nil, err
			}
			// Each interned state occupies at least one byte in its shard
			// or engine frame, so a count beyond the whole stream is
			// damage — guarded here so a fuzzed header cannot drive the
			// shard table allocation to gigabytes.
			if headerStates > size {
				return nil, fmt.Errorf("%w: header claims %d states in %d bytes", ErrCorrupt, headerStates, size)
			}
		case frameShard:
			if f == nil {
				return nil, fmt.Errorf("%w: shard before header", ErrCorrupt)
			}
			if shardStates == nil {
				shardStates = make([]petri.Marking, headerStates)
			}
			n, err := decodeShard(payload, shardStates)
			if err != nil {
				return nil, err
			}
			shardSeen += n
		case frameReach:
			if f == nil || haveEngine {
				return nil, fmt.Errorf("%w: misplaced engine frame", ErrCorrupt)
			}
			if shardSeen != headerStates || shardSeen != len(shardStates) {
				return nil, fmt.Errorf("%w: %d shard states, header says %d", ErrCorrupt, shardSeen, headerStates)
			}
			sn, err := decodeReach(payload, shardStates)
			if err != nil {
				return nil, err
			}
			f.Snap = &verify.EngineSnapshot{Reach: sn}
			haveEngine = true
		case frameCore:
			if f == nil || haveEngine {
				return nil, fmt.Errorf("%w: misplaced engine frame", ErrCorrupt)
			}
			sn, err := decodeCore(payload)
			if err != nil {
				return nil, err
			}
			if sn.NumStates != headerStates {
				return nil, fmt.Errorf("%w: engine has %d states, header says %d", ErrCorrupt, sn.NumStates, headerStates)
			}
			f.Snap = &verify.EngineSnapshot{Core: sn}
			haveEngine = true
		case frameFooter:
			haveFooter = true
			footerDigest = payload
		default:
			return nil, fmt.Errorf("%w: unknown frame type %q", ErrCorrupt, typ)
		}
	}
	if !haveFooter {
		return nil, fmt.Errorf("%w: footer missing", ErrTorn)
	}
	if f == nil || !haveEngine {
		return nil, fmt.Errorf("%w: incomplete container", ErrCorrupt)
	}
	// Digest check: the hash was accumulated over every frame before the
	// footer exactly as written.
	if !bytes.Equal(digest.Sum(nil), footerDigest) {
		return nil, fmt.Errorf("%w: digest mismatch", ErrCorrupt)
	}
	// Content self-check: the decoded net + check + options must hash
	// back to the header's RunKey. This catches damage in any frame the
	// digest covers only probabilistically and, more importantly, any
	// format skew in RunKey itself (RunKeyFormat bump): a checkpoint
	// written under an older key scheme refuses to resume instead of
	// resuming under a wrong identity.
	if got := verify.RunKey(f.Net, f.Check, f.Bad, f.Options()); got != f.Key {
		return nil, fmt.Errorf("%w: content hashes to %s, header says %s", ErrCorrupt, got.RunID(), f.Key.RunID())
	}
	return f, nil
}
