package cluster_test

// End-to-end tests of what "cluster": true means on a gpod fleet: the
// run executes on the member that received it, exactly as the same
// request without the flag does on a standalone server, and no member
// hears of it but through the shared result tier.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/obs/trace"
	"repro/internal/petri"
	"repro/internal/pnio"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/servertest"
)

// startFleet boots n complete gpod servers as one loopback cluster and
// closes them when the test ends.
func startFleet(t *testing.T, n int, cfg server.Config) *servertest.Fleet {
	t.Helper()
	f, err := servertest.StartFleet(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("close fleet: %v", err)
		}
	})
	return f
}

// startAlone boots one gpod server outside any cluster.
func startAlone(t *testing.T, cfg server.Config) *servertest.Server {
	t.Helper()
	s, err := servertest.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// notTier matches the /cluster/v1/ paths that are not the shared
// result tier's.
func notTier(path string) bool {
	return strings.HasPrefix(path, "/cluster/v1/") && !strings.HasPrefix(path, "/cluster/v1/cache/")
}

// explored returns each member's reach.states counter.
func explored(f *servertest.Fleet) []int64 {
	var out []int64
	for _, p := range f.Peers {
		out = append(out, p.Metrics.Snapshot().Counters["reach.states"])
	}
	return out
}

// sameAnswer sends req to a standalone server and, with "cluster": true,
// to fleet member i, and compares the two answers: the error, or the
// verdict, states, witness and run ID. Only member i may explore, no
// member may receive a /cluster/v1/ request outside the shared tier, and
// a successful cluster reply carries the fleet size. It returns the
// cluster reply (nil on an error) and the error.
func sameAnswer(t *testing.T, alone *servertest.Server, f *servertest.Fleet, i int, req server.Request) (*server.Response, error) {
	t.Helper()
	ctx := context.Background()
	req.Cluster = false
	want, wantErr := alone.Client.Verify(ctx, &req)
	received := 0
	for _, p := range f.Peers {
		received += p.Received(notTier)
	}
	before := explored(f)
	req.Cluster = true
	got, err := f.Peers[i].Client.Verify(ctx, &req)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("cluster error %v, standalone %v", err, wantErr)
	}
	for _, p := range f.Peers {
		received -= p.Received(notTier)
	}
	if received != 0 {
		t.Errorf("the fleet received %d /cluster/v1/ requests outside the shared tier during the run", -received)
	}
	after := explored(f)
	for j := range after {
		if j != i && after[j] != before[j] {
			t.Errorf("member %d explored %d states of a run member %d received", j, after[j]-before[j], i)
		}
	}
	if err != nil {
		return nil, err
	}
	if got.Cached || got.Peers != len(f.Peers) {
		t.Errorf("cluster reply: cached=%v peers=%d, want a fresh run stamped peers=%d", got.Cached, got.Peers, len(f.Peers))
	}
	if got.Status != want.Status || got.Complete != want.Complete || got.Deadlock != want.Deadlock ||
		got.States != want.States || !slices.Equal(got.Witness, want.Witness) || got.RunID != want.RunID {
		t.Errorf("cluster run differs from the standalone one:\n got %+v\nwant %+v", got, want)
	}
	if d := after[i] - before[i]; d != int64(got.States) {
		t.Errorf("member %d explored %d states, its reply says %d", i, d, got.States)
	}
	return got, nil
}

// netText is n in the pnio text format, for a request's Net field.
func netText(t *testing.T, n *petri.Net) string {
	t.Helper()
	var b strings.Builder
	if err := pnio.Write(&b, n); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestClusterBitIdentical is the determinism contract of cluster mode: a
// "cluster": true request on a 3-member fleet answers exactly what the
// request without it answers on a standalone server — full runs, a
// safety check, the MaxStates stop and the unsafe-firing error — and
// runs on the member that received it.
func TestClusterBitIdentical(t *testing.T) {
	alone := startAlone(t, server.Config{Workers: 2})
	f := startFleet(t, 3, server.Config{Workers: 2})
	exhaustive := func(model string, size int) server.Request {
		return server.Request{Model: model, Size: size, Engine: "exhaustive", TimeoutMS: 60_000}
	}

	t.Run("nsdp8-full", func(t *testing.T) {
		got, err := sameAnswer(t, alone, f, 0, exhaustive("nsdp", 8))
		if err != nil {
			t.Fatal(err)
		}
		if got.States != 103682 {
			t.Fatalf("nsdp(8) baseline drifted: %d states", got.States)
		}
	})

	t.Run("rw12-full", func(t *testing.T) {
		if _, err := sameAnswer(t, alone, f, 1, exhaustive("rw", 12)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("rw12-safety", func(t *testing.T) {
		rw12 := models.ReadersWriters(12)
		req := exhaustive("rw", 12)
		req.Check = "safety"
		req.Bad = []string{rw12.PlaceName(0), rw12.PlaceName(1)}
		if _, err := sameAnswer(t, alone, f, 2, req); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("nsdp7-capped", func(t *testing.T) {
		for i, cap := range []int{1, 500, 5000} {
			req := exhaustive("nsdp", 7)
			req.MaxStates = cap
			_, err := sameAnswer(t, alone, f, i, req)
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(ae.Message, "state limit") {
				t.Fatalf("cap %d: got %v, want 422 with the state limit error", cap, err)
			}
		}
	})

	t.Run("unsafe-witness", func(t *testing.T) {
		b := petri.NewBuilder("unsafe")
		p := b.Place("p")
		q := b.Place("q")
		r := b.Place("r")
		b.TransArcs("t1", []petri.Place{p}, []petri.Place{r})
		b.TransArcs("t2", []petri.Place{q}, []petri.Place{r})
		b.Mark(p, q)
		n, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, err = sameAnswer(t, alone, f, 0, server.Request{Net: netText(t, n), Engine: "exhaustive", TimeoutMS: 60_000})
		if err == nil || !strings.Contains(err.Error(), "not safe") {
			t.Fatalf("got %v, want the unsafe-firing error", err)
		}
	})
}

// TestClusterMetrics checks that a cluster run reports to the executing
// member's registry like any other run — reach.states and reach.arcs —
// and that GET /v1/cluster reports the membership and the shared tier's
// counters only.
func TestClusterMetrics(t *testing.T) {
	f := startFleet(t, 3, server.Config{Workers: 2})
	resp, err := f.Peers[0].Client.Verify(context.Background(), &server.Request{Model: "nsdp", Size: 5, Engine: "exhaustive", Cluster: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := f.Peers[0].Metrics.Snapshot()
	if got := snap.Counters["reach.states"]; got != int64(resp.States) {
		t.Errorf("reach.states = %d, want %d", got, resp.States)
	}
	if snap.Counters["reach.arcs"] == 0 {
		t.Error("reach.arcs not recorded")
	}
	tier := []string{"cluster.peers", "cluster.remote_cache_hits", "cluster.singleflight_waits"}
	for i, p := range f.Peers {
		st := p.Node.Status()
		if st.Metrics["cluster.peers"] != 3 {
			t.Errorf("member %d: cluster.peers = %d, want 3", i, st.Metrics["cluster.peers"])
		}
		for name := range st.Metrics {
			if !slices.Contains(tier, name) {
				t.Errorf("member %d reports %s; the cluster status holds membership and tier counters only", i, name)
			}
		}
	}
}

// TestLocalWidthRouting pins that a level's width no longer decides
// where it is expanded: nsdp(8), whose widest level (17 744 positions)
// the retired distributed explorer shipped to the peers, runs on the
// receiving member like over(5), whose widest has 3 955.
func TestLocalWidthRouting(t *testing.T) {
	f := startFleet(t, 3, server.Config{Workers: 2})
	for i, spec := range []struct {
		family string
		size   int
	}{{"nsdp", 8}, {"over", 5}} {
		before, received := explored(f), 0
		for _, p := range f.Peers {
			received += p.Received(notTier)
		}
		resp, err := f.Peers[i].Client.Verify(context.Background(), &server.Request{Model: spec.family, Size: spec.size, Engine: "exhaustive", Cluster: true})
		if err != nil {
			t.Fatalf("%s(%d): %v", spec.family, spec.size, err)
		}
		for _, p := range f.Peers {
			received -= p.Received(notTier)
		}
		after := explored(f)
		for j := range after {
			want := int64(0)
			if j == i {
				want = int64(resp.States)
			}
			if d := after[j] - before[j]; d != want {
				t.Errorf("%s(%d): member %d explored %d states, want %d", spec.family, spec.size, j, d, want)
			}
		}
		if received != 0 {
			t.Errorf("%s(%d): %d /cluster/v1/ requests outside the shared tier", spec.family, spec.size, -received)
		}
	}
}

// TestClusterSingleNodeFallback pins that a 1-member cluster answers a
// cluster request like a standalone server and stamps peers=1.
func TestClusterSingleNodeFallback(t *testing.T) {
	alone := startAlone(t, server.Config{Workers: 1})
	f := startFleet(t, 1, server.Config{Workers: 1})
	if _, err := sameAnswer(t, alone, f, 0, server.Request{Model: "nsdp", Size: 4, Engine: "exhaustive"}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterTracingPassive is the tracing acceptance pair for cluster
// runs: a traced cluster run answers exactly what an untraced standalone
// run does, and the executing member's recorder reconstructs the exact
// state count from KindState events alone.
func TestClusterTracingPassive(t *testing.T) {
	alone := startAlone(t, server.Config{Workers: 2})
	f := startFleet(t, 3, server.Config{Workers: 2, TraceRuns: 2})
	got, err := sameAnswer(t, alone, f, 0, server.Request{Model: "nsdp", Size: 6, Engine: "exhaustive"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.Peers[0].URL + "/v1/runs/" + got.RunID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET trace: %d: %s", resp.StatusCode, body)
	}
	b, err := trace.ReadBundle(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Peers) != 1 {
		t.Fatalf("bundle holds %d dumps, want the executing member's alone", len(b.Peers))
	}
	states := 0
	for _, tk := range b.Peers[0].Dump.Tracks {
		for _, ev := range tk.Events {
			if ev.Kind == trace.KindState {
				states++
			}
		}
	}
	if states != got.States {
		t.Fatalf("dump holds %d state events, the reply says %d", states, got.States)
	}
}
