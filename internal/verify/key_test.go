package verify

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/models"
	"repro/internal/obs/ledger"
	"repro/internal/petri"
	"repro/internal/randnet"
)

// TestRunKeyGolden pins the RunKey encoding to golden values across the
// option surface. The RunID is a durable identity: it keys the gpod
// result cache, the run ledger, the cluster result tier and the ckpt/v1
// checkpoint header, so an ACCIDENTAL change to the encoding (a
// reordered field, a new option folded in without a version bump)
// silently disconnects every stored artifact from its run. This test
// makes such a change loud.
//
// To change the encoding DELIBERATELY: bump RunKeyFormat in key.go,
// re-generate the golden values below (the failure output prints the
// new ones), and note the bump in CHANGES.md — old cache lines, ledger
// entries and checkpoints then refuse to match under the new scheme
// instead of colliding with it, which is the intended migration.
func TestRunKeyGolden(t *testing.T) {
	fig7 := models.Fig7()
	nsdp := models.NSDP(3)
	eat0, _ := nsdp.PlaceByName("eat0")
	eat1, _ := nsdp.PlaceByName("eat1")
	bad := []petri.Place{eat0, eat1}

	cases := []struct {
		label string
		net   *petri.Net
		check string
		bad   []petri.Place
		opts  Options
		want  string
	}{
		{"fig7/deadlock/exhaustive", fig7, "deadlock", nil, Options{Engine: Exhaustive}, "r7b36865fc837d191b8a54790"},
		{"fig7/deadlock/gpo", fig7, "deadlock", nil, Options{Engine: GPO}, "r47f7b9ace18b3ae5acc0be3a"},
		{"fig7/deadlock/gpo-explicit", fig7, "deadlock", nil, Options{Engine: GPOExplicit}, "r79fc4c2a3cd1681a49e39be2"},
		{"fig7/deadlock/partial-order", fig7, "deadlock", nil, Options{Engine: PartialOrder}, "r123fdb66576330fe50aa12a3"},
		{"fig7/deadlock/symbolic", fig7, "deadlock", nil, Options{Engine: Symbolic}, "r559787d2ef472d2401597977"},
		{"fig7/deadlock/unfolding", fig7, "deadlock", nil, Options{Engine: Unfolding}, "rd6fcada242137323477b7ef2"},
		{"fig7/deadlock/stop-at-first", fig7, "deadlock", nil, Options{Engine: Exhaustive, StopAtFirst: true}, "re8a4af3b53dcec2cef658412"},
		{"fig7/deadlock/proviso", fig7, "deadlock", nil, Options{Engine: PartialOrder, Proviso: true}, "rf5faeae9967533500902c313"},
		{"fig7/deadlock/reduce", fig7, "deadlock", nil, Options{Engine: Exhaustive, Reduce: true}, "r547d485285ee8f05e5eeb751"},
		{"fig7/deadlock/max-states", fig7, "deadlock", nil, Options{Engine: Exhaustive, MaxStates: 1000}, "ra0e7ce4e6dcda80d88302037"},
		{"fig7/deadlock/max-nodes", fig7, "deadlock", nil, Options{Engine: Symbolic, MaxNodes: 4096}, "r09466dbd20d501e58b6d30f9"},
		{"nsdp3/safety/gpo", nsdp, "safety", bad, Options{Engine: GPO}, "r6a83f0f2b905f6aff7190b90"},
		{"nsdp3/safety/exhaustive", nsdp, "safety", bad, Options{Engine: Exhaustive}, "ra1ad4a099d539ca0ef07b785"},
	}
	for _, tc := range cases {
		if got := RunID(tc.net, tc.check, tc.bad, tc.opts); got != tc.want {
			t.Errorf("%s: RunID = %q, want %q\n"+
				"The RunKey encoding changed. If this is deliberate, bump RunKeyFormat in key.go,\n"+
				"replace the golden values in this test with the new RunIDs (printed above), and\n"+
				"record the format bump in CHANGES.md. If it is not deliberate, the change would\n"+
				"orphan every cached result, ledger entry and checkpoint — undo it.",
				tc.label, got, tc.want)
		}
	}

	// Workers is a runtime knob, not an identity: the parallel explorer
	// is bit-identical to the sequential one (DESIGN.md D6), so both
	// share one cache line and one checkpoint key.
	seq := RunID(fig7, "deadlock", nil, Options{Engine: Exhaustive})
	par := RunID(fig7, "deadlock", nil, Options{Engine: Exhaustive, Workers: 8})
	if seq != par {
		t.Errorf("Workers changed the RunID (%s != %s); it must stay excluded", seq, par)
	}
	// Ckpt and Resume are excluded too: a resumed run computes exactly
	// what the uninterrupted run would have.
	ck := RunID(fig7, "deadlock", nil, Options{Engine: Exhaustive,
		Ckpt: &Checkpointer{}, Resume: &EngineSnapshot{}})
	if seq != ck {
		t.Errorf("Ckpt/Resume changed the RunID (%s != %s); they must stay excluded", seq, ck)
	}
}

// rawRunKey assembles a run-key pre-image field by field, with none of
// AppendRunKey's normalisation, so tests can write non-canonical ones.
func rawRunKey(format uint64, net []byte, check string, bad []petri.Place, flags uint64) []byte {
	b := codec.AppendUvarint(nil, format)
	b = append(b, net...)
	b = codec.AppendBytes(b, check)
	b = codec.AppendInts(b, bad)
	b = codec.AppendInt(b, 0) // engine
	b = codec.AppendUvarint(b, flags)
	b = codec.AppendInt(b, 0)    // max states
	return codec.AppendInt(b, 0) // max nodes
}

// TestNetKeyRoundTrip pins DecodeRunKey as the exact inverse of
// AppendNetKey inside the run-key pre-image — the checkpoint container
// stores the net as this encoding — over the Table 1 models and 200
// random nets, and that damaged encodings are refused rather than
// decoded as another net.
func TestNetKeyRoundTrip(t *testing.T) {
	var nets []*petri.Net
	for family, sizes := range map[string][]int{
		"nsdp": {2, 4, 6, 8, 10}, "asat": {2, 4, 8}, "over": {2, 3, 4, 5}, "rw": {6, 9, 12, 15},
	} {
		for _, size := range sizes {
			n, err := models.ByName(family, size)
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, n)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		nets = append(nets, randnet.Generate(randnet.Default(seed)))
	}
	for i, n := range nets {
		blob := AppendRunKey(nil, n, "deadlock", nil, Options{})
		got, _, _, _, err := DecodeRunKey(blob)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if !bytes.Equal(AppendNetKey(nil, got), AppendNetKey(nil, n)) {
			t.Fatalf("%s: decoded net encodes differently", n.Name())
		}
		if got.Name() != n.Name() || got.NumPlaces() != n.NumPlaces() || got.NumTrans() != n.NumTrans() ||
			!got.InitialMarking().Equal(n.InitialMarking()) {
			t.Fatalf("%s: decoded net differs in shape", n.Name())
		}
		// Cut short anywhere (every tenth net: the walk is quadratic), the
		// encoding is refused.
		for cut := len(blob) - 1; cut >= 0; cut-- {
			if _, _, _, _, err := DecodeRunKey(blob[:cut]); err == nil {
				t.Fatalf("%s: encoding cut at %d of %d decoded", n.Name(), cut, len(blob))
			}
			if i%10 != 0 {
				break
			}
		}
		if _, _, _, _, err := DecodeRunKey(append(blob[:len(blob):len(blob)], 0)); !errors.Is(err, codec.ErrMalformed) {
			t.Fatalf("%s: trailing byte: %v, want codec.ErrMalformed", n.Name(), err)
		}
	}
	// Well-formed bytes that do not describe a net: a dangling place
	// reference, and a non-canonical (unsorted) preset.
	for label, net := range map[string][]byte{
		"dangling place":   {1, 'n', 1, 1, 'p', 1, 5, 0},
		"unsorted preset":  {1, 'n', 2, 1, 'p', 1, 'q', 0, 1, 1, 't', 2, 1, 0, 0},
		"duplicate places": {1, 'n', 2, 1, 'p', 1, 'p', 0, 0},
	} {
		if n, _, _, _, err := DecodeRunKey(rawRunKey(RunKeyFormat, net, "deadlock", nil, 0)); err == nil {
			t.Errorf("%s: decoded as %s", label, n.Name())
		}
	}
}

// TestRunKeyPreimage pins the pre-image as one identity per run: the
// order the caller lists bad places in does not change the key (the
// CLI passes them as typed, gpod resolves them from JSON), DecodeRunKey
// returns every result-determining option, and a pre-image that is not
// canonical or not of this RunKeyFormat is refused.
func TestRunKeyPreimage(t *testing.T) {
	nsdp := models.NSDP(3)
	eat0, _ := nsdp.PlaceByName("eat0")
	eat1, _ := nsdp.PlaceByName("eat1")
	typed := []petri.Place{eat1, eat0}
	if RunKey(nsdp, "safety", typed, Options{}) != RunKey(nsdp, "safety", []petri.Place{eat0, eat1}, Options{}) {
		t.Error("the order of the bad places changed the RunKey")
	}
	if typed[0] != eat1 {
		t.Error("RunKey reordered the caller's bad places")
	}

	opts := Options{Engine: PartialOrder, StopAtFirst: true, Proviso: true, Reduce: true, MaxStates: 1000, MaxNodes: 4096}
	blob := AppendRunKey(nil, nsdp, "safety", typed, opts)
	if RunKey(nsdp, "safety", typed, opts) != sha256.Sum256(blob) {
		t.Error("RunKey is not the SHA-256 of the pre-image")
	}
	n, check, bad, o, err := DecodeRunKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(AppendNetKey(nil, n), AppendNetKey(nil, nsdp)) || check != "safety" ||
		!slices.Equal(bad, []petri.Place{eat0, eat1}) || !reflect.DeepEqual(o, opts) {
		t.Errorf("decoded %s/%s/%v/%+v", n.Name(), check, bad, o)
	}

	net := AppendNetKey(nil, nsdp)
	if _, _, _, _, err := DecodeRunKey(rawRunKey(RunKeyFormat, net, "deadlock", nil, 0)); err != nil {
		t.Fatalf("canonical control: %v", err)
	}
	for label, tc := range map[string]struct {
		blob []byte
		want error // nil: any refusal
	}{
		"unsorted bad":     {rawRunKey(RunKeyFormat, net, "safety", typed, 0), nil},
		"unknown flag":     {rawRunKey(RunKeyFormat, net, "deadlock", nil, 8), nil},
		"bad out of range": {rawRunKey(RunKeyFormat, net, "safety", []petri.Place{99}, 0), nil},
		"older format":     {rawRunKey(RunKeyFormat-1, net, "deadlock", nil, 0), ErrRunKeyFormat},
		"newer format":     {rawRunKey(RunKeyFormat+1, net, "deadlock", nil, 0), ErrRunKeyFormat},
	} {
		_, _, _, _, err := DecodeRunKey(tc.blob)
		if err == nil {
			t.Errorf("%s: decoded", label)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", label, err, tc.want)
		}
	}
}

// TestLedgerEntry pins the one report-to-ledger mapping the CLI and the
// daemon share: identity and options from the run, times from the
// writer, and per outcome the status and which result fields it keeps.
// A checkpointed or aborted run keeps its partial statistics but no
// verdict; an error keeps only its message.
func TestLedgerEntry(t *testing.T) {
	n := models.NSDP(3)
	eat0, _ := n.PlaceByName("eat0")
	bad := []petri.Place{eat0}
	opts := Options{Engine: Exhaustive, StopAtFirst: true, Proviso: true, Reduce: true, MaxStates: 9, MaxNodes: 8, Workers: 2}
	key := RunKey(n, "safety", bad, opts)
	partial := Report{Deadlock: true, States: 7, PeakBDD: 5, PeakSets: 4.5, Complete: true}
	for _, tc := range []struct {
		status string
		rep    *Report
		err    error
		want   ledger.Entry // the outcome fields
	}{
		{"ok", &partial, nil, ledger.Entry{Status: "ok", Deadlock: true, States: 7, PeakBDD: 5, PeakSets: 4, Complete: true}},
		{"aborted", &Report{Aborted: true, Deadlock: true, States: 7, PeakBDD: 5, PeakSets: 4.5}, nil,
			ledger.Entry{Status: "aborted", States: 7, PeakBDD: 5, PeakSets: 4}},
		{"checkpointed", &Report{Checkpointed: true, Aborted: true, Deadlock: true, States: 7, PeakBDD: 5, PeakSets: 4.5}, nil,
			ledger.Entry{Status: "checkpointed", States: 7, PeakBDD: 5, PeakSets: 4}},
		{"error", nil, errors.New("state limit"), ledger.Entry{Status: "error", AbortReason: "state limit"}},
	} {
		want := tc.want
		want.RunID, want.Net, want.Engine, want.Check = key.RunID(), "NSDP(3)", "exhaustive", "safety"
		want.StopAtFirst, want.Proviso, want.Reduce = true, true, true
		want.MaxStates, want.MaxNodes, want.Workers = 9, 8, 2
		want.StartUnixNS, want.EndUnixNS, want.WallNS = 100, 350, 250
		if got := LedgerEntry(key, n, "safety", opts, tc.rep, tc.err, 100, 350); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.status, got, want)
		}
	}
}
