package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/stop"
	"repro/internal/verify"
)

// runCheck dispatches on the check name, mirroring the server's request
// resolution.
func runCheck(t testing.TB, n *petri.Net, check string, bad []petri.Place, opts verify.Options) *verify.Report {
	t.Helper()
	var rep *verify.Report
	var err error
	switch check {
	case "deadlock":
		rep, err = verify.CheckDeadlock(n, opts)
	case "safety":
		rep, err = verify.CheckSafety(n, bad, opts)
	default:
		t.Fatalf("unknown check %q", check)
	}
	if err != nil {
		t.Fatalf("%s/%s: %v", n.Name(), check, err)
	}
	return rep
}

// capture runs the check until boundary `at`, stops there, and wraps
// the saved engine snapshot in a File the way the jobs subsystem does.
func capture(t testing.TB, n *petri.Net, check string, bad []petri.Place, opts verify.Options, at int64) *File {
	t.Helper()
	var snap *verify.EngineSnapshot
	o := opts
	o.Ckpt = &verify.Checkpointer{
		Poll: func(states int, boundary int64) stop.Action {
			if boundary == at {
				return stop.Suspend
			}
			return stop.Continue
		},
		Save: func(sn *verify.EngineSnapshot) error { snap = sn; return nil },
	}
	rep := runCheck(t, n, check, bad, o)
	if !rep.Checkpointed || snap == nil {
		t.Fatalf("%s/%s: run finished before boundary %d; pick a smaller one", n.Name(), check, at)
	}
	return &File{Net: n, Check: check, Bad: bad, Opts: opts, Snap: snap}
}

// reportEqual compares every Report field a resumed run must reproduce
// (Elapsed is wall clock and excluded).
func reportEqual(a, b *verify.Report) bool {
	return a.Net == b.Net && a.Engine == b.Engine && a.Deadlock == b.Deadlock &&
		reflect.DeepEqual(a.Witness, b.Witness) && a.States == b.States &&
		a.PeakBDD == b.PeakBDD && a.PeakSets == b.PeakSets &&
		a.Complete == b.Complete && a.Aborted == b.Aborted &&
		a.Checkpointed == b.Checkpointed &&
		a.PlacesRemoved == b.PlacesRemoved && a.TransRemoved == b.TransRemoved
}

// ckptCases covers both container kinds across check types and the
// option flags the header encodes.
type ckptCase struct {
	label string
	net   *petri.Net
	check string
	bad   []petri.Place
	opts  verify.Options
	at    int64
}

func ckptCases() []ckptCase {
	nsdp := models.NSDP(4)
	eat0, _ := nsdp.PlaceByName("eat0")
	eat1, _ := nsdp.PlaceByName("eat1")
	rw := models.ReadersWriters(3)
	reading0, _ := rw.PlaceByName("reading0")
	writing, _ := rw.PlaceByName("writing")
	return []ckptCase{
		{"reach/deadlock", nsdp, "deadlock", nil, verify.Options{Engine: verify.Exhaustive}, 2},
		{"reach/safety", rw, "safety", []petri.Place{reading0, writing}, verify.Options{Engine: verify.Exhaustive}, 2},
		{"reach/reduced", models.Overtake(2), "deadlock", nil, verify.Options{Engine: verify.Exhaustive, Reduce: true}, 1},
		{"core/deadlock", nsdp, "deadlock", nil, verify.Options{Engine: verify.GPO}, 3},
		{"core/safety", nsdp, "safety", []petri.Place{eat0, eat1}, verify.Options{Engine: verify.GPO}, 3},
		{"core/explicit", models.Fig7(), "deadlock", nil, verify.Options{Engine: verify.GPOExplicit}, 2},
	}
}

// TestWriteReadRoundTrip pins that a checkpoint survives the disk
// format byte for byte: identity, options and engine snapshot all
// decode back equal.
func TestWriteReadRoundTrip(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.label, func(t *testing.T) {
			f := capture(t, tc.net, tc.check, tc.bad, tc.opts, tc.at)
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := Write(path, f); err != nil {
				t.Fatal(err)
			}
			got, err := Read(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key() != f.Key() {
				t.Errorf("key: %s != %s", got.Key().RunID(), f.Key().RunID())
			}
			if got.Check != f.Check || !reflect.DeepEqual(got.Bad, f.Bad) {
				t.Errorf("check/bad: %q/%v != %q/%v", got.Check, got.Bad, f.Check, f.Bad)
			}
			if !reflect.DeepEqual(got.Opts, f.Opts) {
				t.Errorf("options: %+v != %+v", got.Opts, f.Opts)
			}
			if got.Boundary() != f.Boundary() || got.States() != f.States() {
				t.Errorf("boundary/states: %d/%d != %d/%d",
					got.Boundary(), got.States(), f.Boundary(), f.States())
			}
			if string(verify.AppendNetKey(nil, got.Net)) != string(verify.AppendNetKey(nil, f.Net)) {
				t.Error("net did not round-trip canonically")
			}
			if rs := f.Snap.Reach; rs != nil {
				g := got.Snap.Reach
				if g == nil {
					t.Fatal("reach snapshot decoded as core")
				}
				if !reflect.DeepEqual(g.States, rs.States) ||
					g.FrontierStart != rs.FrontierStart || g.Arcs != rs.Arcs ||
					g.Levels != rs.Levels ||
					!reflect.DeepEqual(g.DeadIDs, rs.DeadIDs) ||
					!reflect.DeepEqual(g.BadIDs, rs.BadIDs) {
					t.Error("reach snapshot did not round-trip")
				}
			} else {
				g := got.Snap.Core
				if g == nil {
					t.Fatal("core snapshot decoded as reach")
				}
				if g.NumPlaces != f.Snap.Core.NumPlaces || g.NumStates != f.Snap.Core.NumStates ||
					g.Steps != f.Snap.Core.Steps ||
					string(g.FamilyBlob) != string(f.Snap.Core.FamilyBlob) ||
					len(g.Frames) != len(f.Snap.Core.Frames) {
					t.Error("core snapshot did not round-trip")
				}
			}
		})
	}
}

// TestResumeFromFile is the end-to-end durability pin: kill, persist to
// disk, decode, resume — the final Report must be bit-identical to the
// uninterrupted run's.
func TestResumeFromFile(t *testing.T) {
	for _, tc := range ckptCases() {
		t.Run(tc.label, func(t *testing.T) {
			want := runCheck(t, tc.net, tc.check, tc.bad, tc.opts)
			f := capture(t, tc.net, tc.check, tc.bad, tc.opts, tc.at)
			path := filepath.Join(t.TempDir(), "run.ckpt")
			if err := Write(path, f); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFor(path, f.Key())
			if err != nil {
				t.Fatal(err)
			}
			o := got.Opts
			o.Resume = got.Snap
			rep := runCheck(t, got.Net, got.Check, got.Bad, o)
			if !reportEqual(want, rep) {
				t.Errorf("resumed %+v != uninterrupted %+v", rep, want)
			}
		})
	}
}

// image builds an in-memory container for the corruption tests.
func image(t testing.TB, tc ckptCase) []byte {
	t.Helper()
	f := capture(t, tc.net, tc.check, tc.bad, tc.opts, tc.at)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// typedErr reports whether err maps to one of the package's typed
// failure modes — the "never a silent resume" guarantee.
func typedErr(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrUnsupported) ||
		errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt)
}

// TestTornTail truncates a valid container at every prefix length: all
// of them must surface as ErrBadMagic (inside the preamble) or ErrTorn,
// never as a successful decode or an untyped error.
func TestTornTail(t *testing.T) {
	cases := ckptCases()
	for _, tc := range []ckptCase{cases[0], cases[5]} { // one per kind
		t.Run(tc.label, func(t *testing.T) {
			b := image(t, tc)
			if _, err := Decode(b); err != nil {
				t.Fatalf("intact image: %v", err)
			}
			for i := 0; i < len(b); i++ {
				_, err := Decode(b[:i])
				if err == nil {
					t.Fatalf("truncation at %d/%d decoded successfully", i, len(b))
				}
				if i < len(magic) {
					if !errors.Is(err, ErrBadMagic) {
						t.Fatalf("truncation at %d: %v, want ErrBadMagic", i, err)
					}
				} else if !errors.Is(err, ErrTorn) {
					t.Fatalf("truncation at %d: %v, want ErrTorn", i, err)
				}
			}
		})
	}
}

// TestBitFlip flips one bit in every byte of a valid container: each
// mutation must surface as a typed error — the digest, the per-frame
// codecs and the RunKey self-check leave no silent path.
func TestBitFlip(t *testing.T) {
	cases := ckptCases()
	for _, tc := range []ckptCase{cases[0], cases[5]} { // one per kind
		t.Run(tc.label, func(t *testing.T) {
			b := image(t, tc)
			for i := 0; i < len(b); i++ {
				for _, bit := range []byte{0x01, 0x80} {
					mut := append([]byte(nil), b...)
					mut[i] ^= bit
					f, err := Decode(mut)
					if err == nil {
						t.Fatalf("bit flip at byte %d (mask %#x) decoded successfully: %+v", i, bit, f)
					}
					if !typedErr(err) {
						t.Fatalf("bit flip at byte %d (mask %#x): untyped error %v", i, bit, err)
					}
				}
			}
		})
	}
}

// TestUnsupportedVersion pins the forward-compatibility refusal: a
// container claiming a future format version is ErrUnsupported before
// anything else is trusted.
func TestUnsupportedVersion(t *testing.T) {
	b := image(t, ckptCases()[5])
	// Layout: magic(8) + frame length(4) + type 'H' + header payload,
	// whose first byte is the uvarint format version.
	if b[12] != frameHeader || b[13] != version {
		t.Fatalf("unexpected layout: type %q version byte %d", b[12], b[13])
	}
	mut := append([]byte(nil), b...)
	mut[13] = version + 1
	if _, err := Decode(mut); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("future version: %v, want ErrUnsupported", err)
	}
}

// TestReadForKeyMismatch pins the wrong-run refusal.
func TestReadForKeyMismatch(t *testing.T) {
	tc := ckptCases()[0]
	f := capture(t, tc.net, tc.check, tc.bad, tc.opts, tc.at)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	other := f.Key()
	other[0] ^= 0xFF
	if _, err := ReadFor(path, other); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("wrong key: %v, want ErrKeyMismatch", err)
	}
	if _, err := ReadFor(path, f.Key()); err != nil {
		t.Fatalf("right key: %v", err)
	}
}

// TestWriteValidation rejects Files without exactly one engine snapshot.
func TestWriteValidation(t *testing.T) {
	dir := t.TempDir()
	for label, f := range map[string]*File{
		"nil snap":   {},
		"empty snap": {Snap: &verify.EngineSnapshot{}},
	} {
		if err := Write(filepath.Join(dir, "x.ckpt"), f); err == nil {
			t.Errorf("%s: Write succeeded", label)
		}
	}
}
