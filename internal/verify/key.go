package verify

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/petri"
)

// Key is the content address of one verification: the SHA-256 of the
// canonical binary encoding of the net plus every result-determining
// option. It names three things at once: the gpod result-cache line,
// the run ID recorded in the run ledger (ledger/v1), and the live run
// exposed on GET /v1/runs — one identity from admission to history.
type Key [sha256.Size]byte

// RunID renders the key as the short run identifier used everywhere a
// human or a log line meets the content address: "r" plus the first 12
// bytes in hex. 96 bits keeps accidental collisions out of reach for
// any plausible ledger size while staying grep-friendly.
func (k Key) RunID() string {
	return "r" + hex.EncodeToString(k[:12])
}

// AppendNetKey appends the canonical encoding of the net: name, places
// (names in index order), initial marking, and per-transition name and
// sorted pre/post place sets. Two nets encode equal iff they describe
// the same net the same way; structural isomorphs with different names
// or orderings are (deliberately) distinct — witnesses speak in place
// names, so names are part of the content. Every string and list is
// length-prefixed (internal/codec), so no two distinct nets can collide
// by concatenation.
func AppendNetKey(b []byte, n *petri.Net) []byte {
	b = codec.AppendBytes(b, n.Name())
	b = codec.AppendInt(b, n.NumPlaces())
	for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
		b = codec.AppendBytes(b, n.PlaceName(p))
	}
	b = codec.AppendInts(b, n.InitialPlaces())
	b = codec.AppendInt(b, n.NumTrans())
	for t := petri.Trans(0); int(t) < n.NumTrans(); t++ {
		b = codec.AppendBytes(b, n.TransName(t))
		b = codec.AppendInts(b, n.Pre(t))
		b = codec.AppendInts(b, n.Post(t))
	}
	return b
}

// DecodeNetKey is the inverse of AppendNetKey: the canonical net
// encoding doubles as the checkpoint container's net serialization, so
// the run identity and the stored net can never disagree. blob must be
// exactly one encoding. The builder rejects dangling place references
// and duplicate names, and the rebuilt net is re-encoded and compared
// byte for byte, so a blob that decodes is the canonical encoding of the
// net returned.
func DecodeNetKey(blob []byte) (*petri.Net, error) {
	d := codec.NewDec(blob)
	bld := petri.NewBuilder(d.String())
	for i := d.Count(1); i > 0 && d.Err() == nil; i-- {
		bld.Place(d.String())
	}
	bld.Mark(codec.Ints[petri.Place](&d)...)
	// A transition is at least its name's length and two list counts.
	for i := d.Count(3); i > 0 && d.Err() == nil; i-- {
		name := d.String()
		pre := codec.Ints[petri.Place](&d)
		bld.TransArcs(name, pre, codec.Ints[petri.Place](&d))
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("verify: net encoding: %w", err)
	}
	n, err := bld.Build()
	if err != nil {
		return nil, fmt.Errorf("verify: net encoding: %w", err)
	}
	if !bytes.Equal(AppendNetKey(nil, n), blob) {
		return nil, errors.New("verify: net encoding is not canonical")
	}
	return n, nil
}

// RunKeyFormat versions the RunKey encoding itself. It is folded into
// every hash, so a deliberate change to how keys are computed (new
// result-determining option, reordered encoding) is made by bumping
// this constant: every RunID changes at once and stale cache lines,
// ledger entries and checkpoints can never collide with keys of the
// new scheme. TestRunKeyGolden pins the current values and explains
// the bump procedure in its failure message.
const RunKeyFormat = 2

// RunKey hashes the net, the check, and the options that determine the
// result. Workers is excluded: the parallel exhaustive explorer is
// bit-identical to the sequential one (DESIGN.md D6), so both share one
// content address. Timeouts and contexts are excluded because aborted
// results are never cached and a run's identity should not depend on
// where a deadline happened to land. Ckpt and Resume are excluded
// because a resumed run computes exactly what the uninterrupted run
// would have — the checkpoint is keyed by the same RunKey it resumes.
// bad must be sorted by the caller (the server sorts during request
// resolution).
func RunKey(n *petri.Net, check string, bad []petri.Place, o Options) Key {
	b := make([]byte, 0, 1024)
	b = codec.AppendUvarint(b, RunKeyFormat)
	b = AppendNetKey(b, n)
	b = codec.AppendBytes(b, check)
	b = codec.AppendInts(b, bad)
	b = codec.AppendInt(b, o.Engine)
	flags := uint64(0)
	if o.StopAtFirst {
		flags |= 1
	}
	if o.Proviso {
		flags |= 2
	}
	if o.Reduce {
		flags |= 4
	}
	b = codec.AppendUvarint(b, flags)
	b = codec.AppendInt(b, o.MaxStates)
	b = codec.AppendInt(b, o.MaxNodes)
	return sha256.Sum256(b)
}

// RunID is the one-call convenience over RunKey for callers that only
// need the identifier (the CLIs' ledger entries).
func RunID(n *petri.Net, check string, bad []petri.Place, o Options) string {
	return RunKey(n, check, bad, o).RunID()
}
