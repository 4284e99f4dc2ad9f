package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/server/servertest"
	"repro/internal/verify"
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

// TestE2ESharedTierNoRecompute pins both cluster contracts over real
// HTTP. A "cluster": true verification on one peer is the in-process
// sequential result exactly — status, completeness, verdict, state count
// and witness. The identical request on a peer that neither coordinated
// it nor asked before is then answered from the shared result tier:
// Cached, the same bytes, and without anyone exploring a single state.
func TestE2ESharedTierNoRecompute(t *testing.T) {
	f := startFleet(t, 3, server.Config{Workers: 2})
	ctx := context.Background()
	for i, inst := range []struct {
		model string
		size  int
	}{{"nsdp", 8}, {"rw", 12}} {
		t.Run(fmt.Sprintf("%s%d", inst.model, inst.size), func(t *testing.T) {
			n, err := models.ByName(inst.model, inst.size)
			if err != nil {
				t.Fatal(err)
			}
			want, err := verify.CheckDeadlock(n, verify.Options{Engine: verify.Exhaustive})
			if err != nil {
				t.Fatalf("in-process run: %v", err)
			}
			var witness []string
			if want.Witness != nil {
				for _, p := range want.Witness.Places() {
					witness = append(witness, n.PlaceName(p))
				}
			}
			req := &server.Request{
				Model: inst.model, Size: inst.size,
				Engine: "exhaustive", Cluster: true, TimeoutMS: 60_000,
			}

			first, err := f.Peers[i].Client.Verify(ctx, req)
			if err != nil {
				t.Fatalf("verify on peer %d: %v", i, err)
			}
			if first.Cached {
				t.Fatal("first request reported Cached")
			}
			if first.Peers != 3 {
				t.Fatalf("first.Peers = %d, want 3", first.Peers)
			}
			if first.Status != server.StatusOK || first.Complete != want.Complete ||
				first.Deadlock != want.Deadlock || first.States != want.States ||
				!slices.Equal(first.Witness, witness) {
				t.Fatalf("cluster run diverged from the in-process one:\n got %+v\nwant states=%d deadlock=%v complete=%v witness=%v",
					first, want.States, want.Deadlock, want.Complete, witness)
			}

			explored := f.Counter("reach.states")
			remoteHits := f.Counter("cluster.remote_cache_hits")
			asker := (i + 2) % 3
			second, err := f.Peers[asker].Client.Verify(ctx, req)
			if err != nil {
				t.Fatalf("verify on peer %d: %v", asker, err)
			}
			if !second.Cached {
				t.Fatal("identical request on another peer was not served from the shared tier")
			}
			if d := f.Counter("reach.states") - explored; d != 0 {
				t.Errorf("the fleet explored %d states answering a shared-tier hit", d)
			}

			// The served copy must be the computed result byte-for-byte, modulo
			// the serving-time decorations (Cached; Peers is original-run-only).
			a, b := *first, *second
			a.Cached, b.Cached = false, false
			a.Peers, b.Peers = 0, 0
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if string(aj) != string(bj) {
				t.Errorf("shared-tier copy differs from the computed result:\n  computed: %s\n  served:   %s", aj, bj)
			}
			if second.Peers != 0 {
				t.Errorf("cached copy carries Peers=%d; the stamp is original-run-only", second.Peers)
			}

			// The hit is visible in the tier's instrumentation on the peer that
			// asked (remote hit) — wherever the key's owner is.
			if d := f.Counter("cluster.remote_cache_hits") - remoteHits; d < 1 {
				t.Errorf("cluster.remote_cache_hits rose by %d across the fleet, want >= 1", d)
			}
		})
	}
}

// TestE2EClusterRejectsBadRequests pins the admission rules: cluster
// execution needs a clustered server and the exhaustive engine.
func TestE2EClusterRejectsBadRequests(t *testing.T) {
	f := startFleet(t, 2, server.Config{Workers: 2})
	ctx := context.Background()
	if _, err := f.Peers[0].Client.Verify(ctx, &server.Request{Model: "rw", Size: 4, Engine: "gpo", Cluster: true}); err == nil {
		t.Error("cluster + gpo engine was accepted; want 400")
	}

	plain, _ := startService(t, server.Config{Workers: 1})
	if _, err := plain.Verify(ctx, &server.Request{Model: "rw", Size: 4, Engine: "exhaustive", Cluster: true}); err == nil {
		t.Error("cluster request on a peerless server was accepted; want 400")
	}
}
