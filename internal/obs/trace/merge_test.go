package trace

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestReadDumpTypedErrors pins the refusal paths of the reader: each
// malformed input maps to a specific sentinel so callers can
// distinguish "empty file" from "corrupt header" from "written by a
// newer build" with errors.Is. A JSONL dump, a format no longer
// written, is a bad header, never misread.
func TestReadDumpTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"empty", "", ErrEmptyTrace},
		{"whitespace only", " \n\t\r\n", ErrEmptyTrace},
		{"not json", "not json at all", ErrBadHeader},
		{"truncated jsonl meta", `{"type":"meta"`, ErrBadHeader},
		{"chrome without traceEvents", `{"foo": 1}`, ErrBadHeader},
		{"chrome future sidecar", `{"traceEvents":[],"gpoTrace":{"v":99}}`, ErrVersionMismatch},
		{"jsonl dump", `{"type":"meta","v":2,"tracks":["core"]}` + "\n" +
			`{"type":"event","track":0,"ts":5,"kind":"state","a0":1,"a1":0}` + "\n", ErrBadHeader},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadDump(strings.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadDump(%q) = %v, want errors.Is(err, %v)", tc.in, err, tc.want)
			}
		})
	}
}

// TestReadDumpLegacyVersion checks that a pre-versioning dump (no "v"
// field anywhere) still parses, reported as format version 1.
func TestReadDumpLegacyVersion(t *testing.T) {
	d, err := ReadDump(strings.NewReader(`{"traceEvents":[]}`))
	if err != nil {
		t.Fatalf("legacy chrome: %v", err)
	}
	if d.Version != 1 {
		t.Fatalf("legacy chrome version = %d, want 1", d.Version)
	}
}

// TestBundleRoundTrip checks WriteBundle → ReadBundle is lossless.
func TestBundleRoundTrip(t *testing.T) {
	in := &Bundle{
		RunID: "run-1",
		Peers: []BundlePeer{
			{Addr: "http://a", Coordinator: true, Dump: sampleDump()},
			{Addr: "http://b", Dump: sampleDump()},
		},
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, in); err != nil {
		t.Fatalf("WriteBundle: %v", err)
	}
	out, err := ReadBundle(&buf)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if out.Schema != BundleSchema || out.RunID != "run-1" || len(out.Peers) != 2 {
		t.Fatalf("round trip header: %+v", out)
	}
	if !out.Peers[0].Coordinator || out.Peers[1].Coordinator || out.Peers[1].Addr != "http://b" {
		t.Fatalf("round trip peers: %+v", out.Peers)
	}
	eventsEqual(t, in.Peers[0].Dump, out.Peers[0].Dump, true)
	eventsEqual(t, in.Peers[1].Dump, out.Peers[1].Dump, true)
}

// TestBundleGoldenV2 reads a bundle written before the cluster kinds
// were retired: a bundle stores Kind as a number, so every surviving
// kind must keep its value and decode to the same event.
func TestBundleGoldenV2(t *testing.T) {
	f, err := os.Open("testdata/bundle_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := ReadBundle(f)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if len(b.Peers) != 1 || b.RunID != "r-golden" {
		t.Fatalf("golden bundle: run %q, %d peers", b.RunID, len(b.Peers))
	}
	d := b.Peers[0].Dump
	var got [][]string
	for _, tk := range d.Tracks {
		var names []string
		for _, ev := range tk.Events {
			names = append(names, ev.Kind.String())
		}
		got = append(got, names)
	}
	want := [][]string{
		{"phase_begin", "state", "fire", "state", "fire", "phase_end", "abort"},
		{"job", "job"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden kinds = %v, want %v", got, want)
	}
	s := Summarize(d, 0)
	if s.States != 2 || s.Fires != 2 || !s.Aborted || s.AbortReason != "context deadline exceeded" || s.Dropped != 2 {
		t.Fatalf("golden summary: %+v", s)
	}
	if m, err := Merge(b); err != nil || len(m.Levels) != 0 {
		t.Fatalf("Merge(golden) = %+v, %v; want no levels", m, err)
	}
}

// TestReadBundleRefusals pins the bundle refusal paths: wrong schema
// and missing dumps are header errors, a dump newer than this reader is
// a version mismatch, and peers disagreeing on version is its own
// sentinel (a fleet mid-upgrade must not be silently half-parsed).
func TestReadBundleRefusals(t *testing.T) {
	enc := func(b *Bundle) string {
		var buf bytes.Buffer
		if err := WriteBundle(&buf, b); err != nil {
			t.Fatalf("WriteBundle: %v", err)
		}
		return buf.String()
	}
	v := func(n int) *Dump {
		d := sampleDump()
		d.Version = n
		return d
	}
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"garbage", "not a bundle", ErrBadHeader},
		{"wrong schema", `{"schema":"something/v9","peers":[]}`, ErrBadHeader},
		{"nil dump", `{"schema":"` + BundleSchema + `","peers":[{"addr":"x"}]}`, ErrBadHeader},
		{"future dump version", enc(&Bundle{Peers: []BundlePeer{{Addr: "a", Dump: v(FormatVersion + 1)}}}), ErrVersionMismatch},
		{"mixed versions", enc(&Bundle{Peers: []BundlePeer{
			{Addr: "a", Dump: v(1)},
			{Addr: "b", Dump: v(FormatVersion)},
		}}), ErrMixedVersions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBundle(strings.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadBundle = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
	if _, err := Merge(&Bundle{}); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("Merge(empty bundle) = %v, want ErrBadHeader", err)
	}
}
