package verify

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/obs/ledger"
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

// RunKeyFormat versions the RunKey encoding itself. It is folded into
// every hash, so a deliberate change to how keys are computed (new
// result-determining option, reordered encoding) is made by bumping
// this constant: every RunID changes at once and stale cache lines,
// ledger entries and checkpoints can never collide with keys of the
// new scheme. TestRunKeyGolden pins the current values and explains
// the bump procedure in its failure message.
const RunKeyFormat = 2

// ErrRunKeyFormat is returned by DecodeRunKey for a pre-image written
// under another RunKeyFormat: its run exists under another identity
// scheme, so it is refused rather than decoded as this scheme's run.
var ErrRunKeyFormat = errors.New("verify: run key of another RunKeyFormat")

// AppendRunKey appends the RunKey pre-image, the exact bytes RunKey
// hashes: RunKeyFormat, the net (AppendNetKey), the check, the bad
// places in ascending order whatever order the caller lists them in,
// and the options that determine the result. Workers is excluded: the
// parallel exhaustive explorer is bit-identical to the sequential one
// (DESIGN.md D6), so both share one content address. Timeouts and
// contexts are excluded because aborted results are never cached and a
// run's identity should not depend on where a deadline happened to
// land. Ckpt and Resume are excluded because a resumed run computes
// exactly what the uninterrupted run would have — the checkpoint is
// keyed by the same RunKey it resumes, and carries this pre-image as
// its header (internal/ckpt).
func AppendRunKey(b []byte, n *petri.Net, check string, bad []petri.Place, o Options) []byte {
	if !slices.IsSorted(bad) {
		bad = slices.Clone(bad)
		slices.Sort(bad)
	}
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
	return codec.AppendInt(b, o.MaxNodes)
}

// DecodeRunKey is the inverse of AppendRunKey: it returns the net, the
// check, the bad places and the result-determining options of a
// pre-image. blob must be exactly one pre-image of the current
// RunKeyFormat (another format is ErrRunKeyFormat), and it is rebuilt
// and re-encoded and compared byte for byte, so a blob that decodes is
// the canonical pre-image of what is returned: its RunKey is the SHA-256
// of blob.
func DecodeRunKey(blob []byte) (n *petri.Net, check string, bad []petri.Place, o Options, err error) {
	d := codec.NewDec(blob)
	if v := d.Uvarint(); d.Err() == nil && v != RunKeyFormat {
		return nil, "", nil, Options{}, fmt.Errorf("%w: format %d, this build keys runs by %d", ErrRunKeyFormat, v, RunKeyFormat)
	}
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
	check = d.String()
	bad = codec.Ints[petri.Place](&d)
	o.Engine = Engine(d.Int())
	flags := d.Uvarint()
	o.StopAtFirst, o.Proviso, o.Reduce = flags&1 != 0, flags&2 != 0, flags&4 != 0
	o.MaxStates = d.Int()
	o.MaxNodes = d.Int()
	if err = d.Done(); err == nil {
		n, err = bld.Build()
	}
	if err != nil {
		return nil, "", nil, Options{}, fmt.Errorf("verify: run key: %w", err)
	}
	for _, p := range bad {
		if int(p) >= n.NumPlaces() {
			return nil, "", nil, Options{}, fmt.Errorf("verify: run key: bad place %d out of range", p)
		}
	}
	if !bytes.Equal(AppendRunKey(nil, n, check, bad, o), blob) {
		return nil, "", nil, Options{}, errors.New("verify: run key is not canonical")
	}
	return n, check, bad, o, nil
}

// RunKey is the content address of a run: the SHA-256 of its
// AppendRunKey pre-image.
func RunKey(n *petri.Net, check string, bad []petri.Place, o Options) Key {
	return sha256.Sum256(AppendRunKey(make([]byte, 0, 1024), n, check, bad, o))
}

// RunID is the one-call convenience over RunKey for callers that only
// need the identifier (the CLIs' ledger entries).
func RunID(n *petri.Net, check string, bad []petri.Place, o Options) string {
	return RunKey(n, check, bad, o).RunID()
}

// LedgerEntry is the one mapping of a finished run to its ledger/v1
// entry, for the CLI and the daemon alike: the run's identity and
// options, its start and end, and the status switch over its outcome
// (runErr, else rep). A writer stamps only what it alone knows: source,
// request ID, abort reason, peers, traces and metrics.
func LedgerEntry(k Key, n *petri.Net, check string, o Options, rep *Report, runErr error, startNS, endNS int64) ledger.Entry {
	e := ledger.Entry{
		RunID:       k.RunID(),
		Net:         n.Name(),
		Engine:      o.Engine.String(),
		Check:       check,
		StopAtFirst: o.StopAtFirst,
		Proviso:     o.Proviso,
		Reduce:      o.Reduce,
		MaxStates:   o.MaxStates,
		MaxNodes:    o.MaxNodes,
		Workers:     o.Workers,
		StartUnixNS: startNS,
		EndUnixNS:   endNS,
		WallNS:      endNS - startNS,
	}
	if runErr != nil {
		e.Status, e.AbortReason = "error", runErr.Error()
		return e
	}
	e.States, e.PeakBDD, e.PeakSets = int64(rep.States), int64(rep.PeakBDD), int64(rep.PeakSets)
	switch {
	case rep.Checkpointed:
		// Suspended at a boundary: partial statistics like an abort's,
		// but resumable — no abort reason, no verdict.
		e.Status = "checkpointed"
	case rep.Aborted:
		e.Status = "aborted"
	default:
		e.Status, e.Deadlock, e.Complete = "ok", rep.Deadlock, rep.Complete
	}
	return e
}
