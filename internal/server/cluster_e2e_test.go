package server_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/petri"
	"repro/internal/pnio"
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
// and witness. The identical request on another peer is then answered
// from the shared result tier: Cached, the same bytes, and without
// anyone exploring a single state. Each instance runs once per place the
// key's owner can take — the coordinator, the asker, the third peer —
// under a fresh net name, so each run is cold.
func TestE2ESharedTierNoRecompute(t *testing.T) {
	f := startFleet(t, 3, server.Config{Workers: 2})
	ctx := context.Background()
	for _, inst := range []struct {
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
			var text strings.Builder
			if err := pnio.Write(&text, n); err != nil {
				t.Fatal(err)
			}
			_, body, _ := strings.Cut(text.String(), "\n")

			for _, placement := range []string{"coordinator", "asker", "third"} {
				t.Run("owner="+placement, func(t *testing.T) {
					req := &server.Request{
						Net:    "net " + placement + "\n" + body,
						Engine: "exhaustive", Cluster: true, TimeoutMS: 60_000,
					}
					owner := f.Peers[0].Node.Owner(runKey(t, req).RunID())
					coord, asker := owner, (owner+1)%3
					switch placement {
					case "asker":
						coord, asker = (owner+1)%3, owner
					case "third":
						coord, asker = (owner+1)%3, (owner+2)%3
					}

					first, err := f.Peers[coord].Client.Verify(ctx, req)
					if err != nil {
						t.Fatalf("verify on peer %d: %v", coord, err)
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

					// The served copy must be the computed result byte-for-byte,
					// modulo the serving-time decorations (Cached; Peers is
					// original-run-only).
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

					// The asker answered with a result another peer computed.
					if d := f.Counter("cluster.remote_cache_hits") - remoteHits; d < 1 {
						t.Errorf("cluster.remote_cache_hits rose by %d across the fleet, want >= 1", d)
					}
				})
			}
		})
	}
}

// TestE2EClusterRunsInProcess pins that a "cluster": true request runs
// on the member that received it: each reply matches the same request
// with "cluster": false on a standalone server — verdict, states,
// witness and run ID — and carries the cluster size, while only that
// member explores and no member receives any /cluster/v1/ request but
// the shared tier's.
func TestE2EClusterRunsInProcess(t *testing.T) {
	alone := start(t, server.Config{Workers: 2})
	f := startFleet(t, 3, server.Config{Workers: 2})
	ctx := context.Background()
	notTier := func(path string) bool {
		return strings.HasPrefix(path, "/cluster/v1/") && !strings.HasPrefix(path, "/cluster/v1/cache/")
	}
	received := func() (n int, explored []int64) {
		for _, p := range f.Peers {
			n += p.Received(notTier)
			explored = append(explored, p.Metrics.Snapshot().Counters["reach.states"])
		}
		return n, explored
	}
	for i, inst := range []struct {
		model string
		size  int
	}{{"nsdp", 6}, {"asat", 4}} {
		t.Run(fmt.Sprintf("%s%d", inst.model, inst.size), func(t *testing.T) {
			req := &server.Request{Model: inst.model, Size: inst.size, Engine: "exhaustive", TimeoutMS: 60_000}
			want, err := alone.Client.Verify(ctx, req)
			if err != nil {
				t.Fatalf("standalone: %v", err)
			}
			before, exploredBefore := received()
			creq := *req
			creq.Cluster = true
			got, err := f.Peers[i].Client.Verify(ctx, &creq)
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			if got.Cached || got.Peers != 3 {
				t.Errorf("cluster reply: cached=%v peers=%d, want a fresh run stamped peers=3", got.Cached, got.Peers)
			}
			if got.Status != want.Status || got.Complete != want.Complete || got.Deadlock != want.Deadlock ||
				got.States != want.States || !slices.Equal(got.Witness, want.Witness) || got.RunID != want.RunID {
				t.Errorf("cluster run differs from the standalone one:\n got %+v\nwant %+v", got, want)
			}
			after, explored := received()
			if n := after - before; n != 0 {
				t.Errorf("the fleet received %d /cluster/v1/ requests outside the shared tier during the run", n)
			}
			for j := range explored {
				d, want := explored[j]-exploredBefore[j], int64(0)
				if j == i {
					want = int64(got.States)
				}
				if d != want {
					t.Errorf("member %d explored %d states, want %d", j, d, want)
				}
			}
		})
	}
}

// runKey is the content address a default-configured server gives req.
func runKey(t *testing.T, req *server.Request) verify.Key {
	t.Helper()
	var n *petri.Net
	var err error
	if req.Net != "" {
		n, err = pnio.Parse(strings.NewReader(req.Net))
	} else {
		n, err = models.ByName(req.Model, req.Size)
	}
	if err != nil {
		t.Fatal(err)
	}
	engine, err := verify.ParseEngine(req.Engine)
	if err != nil {
		t.Fatal(err)
	}
	return verify.RunKey(n, server.CheckDeadlock, nil, verify.Options{Engine: engine})
}

// tierReply is the reply to a shared-tier acquire.
type tierReply struct {
	Status   string           `json:"status"`
	Response *server.Response `json:"response"`
}

// tierRPC posts one shared-tier RPC (acquire, put or release) to a peer,
// keyed by the full key in hex, and returns the HTTP status and, for
// acquire, the reply.
func tierRPC(t *testing.T, p *servertest.Server, op string, key verify.Key, waitMS int64, resp *server.Response) (int, tierReply) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"key": hex.EncodeToString(key[:]), "wait_ms": waitMS, "response": resp})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := p.HTTP.Post(p.URL+"/cluster/v1/cache/"+op, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var rep tierReply
	if op == "acquire" && hr.StatusCode == http.StatusOK {
		if err := json.NewDecoder(hr.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
	}
	return hr.StatusCode, rep
}

// result is a synthetic complete result of the run with key, told apart
// from a computed one by its state count.
func result(key verify.Key, states int) *server.Response {
	return &server.Response{RunID: key.RunID(), Status: server.StatusOK, Engine: "exhaustive",
		Check: server.CheckDeadlock, States: states, Complete: true}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSharedCacheTier drives the owner's side of the tier over real
// HTTP: a put is a hit from every node, a request waiting behind the
// lease wakes with the put, and a release wakes a waiter into computing.
func TestSharedCacheTier(t *testing.T) {
	f := startFleet(t, 3, server.Config{Workers: 2})
	ctx := context.Background()
	waits := func(p *servertest.Server) int64 {
		return p.Metrics.Snapshot().Counters["cluster.singleflight_waits"]
	}

	req := &server.Request{Model: "rw", Size: 6, Engine: "exhaustive"}
	key := runKey(t, req)
	o := f.Peers[0].Node.Owner(key.RunID())
	owner, asker := f.Peers[o], f.Peers[(o+1)%3]
	if code, rep := tierRPC(t, owner, "acquire", key, 0, nil); code != http.StatusOK || rep.Status != "lease" {
		t.Fatalf("first acquire: %d %q, want the lease", code, rep.Status)
	}
	type answer struct {
		resp *server.Response
		err  error
	}
	woke := make(chan answer, 1)
	go func() {
		resp, err := asker.Client.Verify(ctx, req)
		woke <- answer{resp, err}
	}()
	waitFor(t, "the asker to wait behind the lease", func() bool { return waits(owner) == 1 })
	if code, _ := tierRPC(t, owner, "put", key, 0, result(key, 4242)); code != http.StatusOK {
		t.Fatalf("put: %d", code)
	}
	if a := <-woke; a.err != nil || !a.resp.Cached || a.resp.States != 4242 {
		t.Fatalf("waiter woke with %+v, %v; want the put", a.resp, a.err)
	}
	explored := f.Counter("reach.states")
	for i, p := range f.Peers {
		resp, err := p.Client.Verify(ctx, req)
		if err != nil || !resp.Cached || resp.States != 4242 {
			t.Fatalf("peer %d: %+v, %v; want the put", i, resp, err)
		}
	}
	if d := f.Counter("reach.states") - explored; d != 0 {
		t.Errorf("the fleet explored %d states serving the put", d)
	}

	// A release wakes the waiter into computing the run itself.
	req2 := &server.Request{Model: "rw", Size: 7, Engine: "exhaustive"}
	key2 := runKey(t, req2)
	o = f.Peers[0].Node.Owner(key2.RunID())
	owner, asker = f.Peers[o], f.Peers[(o+1)%3]
	if _, rep := tierRPC(t, owner, "acquire", key2, 0, nil); rep.Status != "lease" {
		t.Fatalf("acquire of an unknown key: %q, want the lease", rep.Status)
	}
	before := waits(owner)
	go func() {
		resp, err := asker.Client.Verify(ctx, req2)
		woke <- answer{resp, err}
	}()
	waitFor(t, "the asker to wait behind the lease", func() bool { return waits(owner) > before })
	if code, _ := tierRPC(t, owner, "release", key2, 0, nil); code != http.StatusOK {
		t.Fatalf("release: %d", code)
	}
	if a := <-woke; a.err != nil || a.resp.Cached || a.resp.States == 0 {
		t.Fatalf("waiter woke with %+v, %v; want a computed result", a.resp, a.err)
	}
}

// TestSharedTierFullKey pins the tier's address: two keys that share
// their first 12 bytes, and so their run ID and owner, are two entries.
// Serving one under the other would hand one client another's verdict.
func TestSharedTierFullKey(t *testing.T) {
	f := startFleet(t, 3, server.Config{Workers: 1})
	var k1, k2 verify.Key
	for i := range k1 {
		k1[i], k2[i] = byte(i), byte(i)
	}
	k2[12] ^= 0xff
	if k1.RunID() != k2.RunID() {
		t.Fatal("the keys must share their run ID")
	}
	owner := f.Peers[f.Peers[0].Node.Owner(k1.RunID())]
	if code, _ := tierRPC(t, owner, "put", k1, 0, result(k1, 1)); code != http.StatusOK {
		t.Fatalf("put: %d", code)
	}
	if _, rep := tierRPC(t, owner, "acquire", k1, 0, nil); rep.Status != "hit" {
		t.Fatalf("acquire of the put key: %q, want hit", rep.Status)
	}
	if _, rep := tierRPC(t, owner, "acquire", k2, 0, nil); rep.Status == "hit" {
		t.Fatalf("a key sharing only the run ID was served the put result %+v", rep.Response)
	}
}

// TestSharedTierRefusesBadRPCs pins the owner's checks: a key that is not
// 64 hex digits, and a put that is not a complete ok result of that key's
// run, get 400 and change nothing. With the cache disabled the owner
// leases nothing and drops puts.
func TestSharedTierRefusesBadRPCs(t *testing.T) {
	f := startFleet(t, 2, server.Config{Workers: 1})
	p := f.Peers[0]
	var key verify.Key
	key[0] = 1
	for name, body := range map[string]string{
		"short key": `{"key":"abcd"}`,
		"run ID":    `{"key":"` + key.RunID() + `"}`,
		"not hex":   `{"key":"` + strings.Repeat("zz", 32) + `"}`,
		"not JSON":  `key`,
	} {
		for _, op := range []string{"acquire", "put", "release"} {
			hr, err := p.HTTP.Post(p.URL+"/cluster/v1/cache/"+op, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			hr.Body.Close()
			if hr.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: %d, want 400", op, name, hr.StatusCode)
			}
		}
	}
	other := result(key, 1)
	other.RunID = "r000000000000000000000000"
	aborted := result(key, 1)
	aborted.Status = server.StatusAborted
	partial := result(key, 1)
	partial.Complete = false
	for name, resp := range map[string]*server.Response{"none": nil, "other run": other, "aborted": aborted, "incomplete": partial} {
		if code, _ := tierRPC(t, p, "put", key, 0, resp); code != http.StatusBadRequest {
			t.Errorf("put %s: %d, want 400", name, code)
		}
	}
	if _, rep := tierRPC(t, p, "acquire", key, 0, nil); rep.Status != "lease" {
		t.Errorf("acquire after refused puts: %q, want the lease", rep.Status)
	}

	off := startFleet(t, 2, server.Config{Workers: 1, CacheBytes: -1})
	if code, _ := tierRPC(t, off.Peers[0], "put", key, 0, result(key, 1)); code != http.StatusOK {
		t.Errorf("put to a disabled cache: %d, want 200", code)
	}
	for i := 0; i < 2; i++ {
		if _, rep := tierRPC(t, off.Peers[0], "acquire", key, 0, nil); rep.Status != "compute" {
			t.Errorf("acquire %d on a disabled cache: %q, want compute", i, rep.Status)
		}
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
