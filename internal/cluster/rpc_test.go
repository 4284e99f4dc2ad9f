package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/petri"
)

// tableOneMarkings returns real markings of one Table 1 net: the
// initial marking and its successors, giving the fuzzer realistic seeds
// (little-endian bitset words).
func tableOneMarkings(t testing.TB, family string, size int) []petri.Marking {
	t.Helper()
	n, err := models.ByName(family, size)
	if err != nil {
		t.Fatalf("models.ByName(%s,%d): %v", family, size, err)
	}
	m := n.InitialMarking()
	out := []petri.Marking{m}
	for tr := petri.Trans(0); int(tr) < n.NumTrans(); tr++ {
		if n.Enabled(m, tr) {
			if next, safe := n.Fire(m, tr); safe {
				out = append(out, next)
			}
		}
	}
	return out
}

// payload is an RPC body of the shape the shared tier sends: opaque
// bytes and a number.
type payload struct {
	Key []byte `json:"key"`
	Val uint64 `json:"val"`
}

// FuzzFrameRoundTrip fuzzes the cluster's wire, PostJSON's JSON bodies,
// against a loopback peer. Any payload a member posts reaches the peer
// and comes back identical. The raw fuzz bytes served as a whole reply
// decode exactly as json.Unmarshal decodes them when they are one JSON
// value, and otherwise to a value or an error, never a panic; a
// discarded reply is never an error, and a refusal always is, whatever
// its body.
func FuzzFrameRoundTrip(f *testing.F) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in payload
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.URL.Path {
		case "/echo":
			json.NewEncoder(w).Encode(in)
		case "/raw":
			w.Write(in.Key)
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(in.Key)
		}
	}))
	f.Cleanup(peer.Close)
	nd, err := New(Config{Self: peer.URL, Peers: []string{peer.URL}})
	if err != nil {
		f.Fatal(err)
	}
	for _, spec := range []struct {
		family string
		size   int
	}{{"nsdp", 4}, {"rw", 6}, {"over", 3}, {"asat", 8}} {
		for i, m := range tableOneMarkings(f, spec.family, spec.size) {
			f.Add([]byte(m.Key()), uint64(i)<<32|uint64(i))
		}
	}
	f.Add([]byte{}, uint64(0))
	f.Add(make([]byte, 304), ^uint64(0))
	// Replies that start inside the format: well-formed, mistyped, torn.
	f.Add([]byte(`{"key":"AAECAw==","val":18446744073709551615}`), uint64(1))
	f.Add([]byte(`{"key":7,"val":"x"}`), uint64(1))
	f.Add([]byte(`{"key":"AAEC`), uint64(1))
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, key []byte, val uint64) {
		in := payload{Key: key, Val: val}
		var out payload
		if err := nd.PostJSON(ctx, 0, "/echo", in, &out); err != nil {
			t.Fatalf("echo: %v", err)
		}
		if !bytes.Equal(out.Key, in.Key) || out.Val != in.Val {
			t.Fatalf("round trip %+v -> %+v", in, out)
		}
		var got payload
		err := nd.PostJSON(ctx, 0, "/raw", in, &got)
		if json.Valid(key) {
			var want payload
			wantErr := json.Unmarshal(key, &want)
			if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("reply %q: PostJSON (%+v, %v), json.Unmarshal (%+v, %v)", key, got, err, want, wantErr)
			}
		}
		if err := nd.PostJSON(ctx, 0, "/raw", in, nil); err != nil {
			t.Fatalf("discarded reply: %v", err)
		}
		if err := nd.PostJSON(ctx, 0, "/refuse", in, &got); err == nil {
			t.Fatal("a 503 reply decoded without error")
		}
	})
}
