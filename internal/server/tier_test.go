package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// loneOwner is a server that owns every key of a one-member cluster whose
// only URL refuses connections: whatever it answers, it answered without
// an HTTP request to itself.
func loneOwner(t *testing.T) (*Server, *parsedRequest) {
	t.Helper()
	const self = "http://127.0.0.1:1"
	nd, err := cluster.New(cluster.Config{Self: self, Peers: []string{self}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Cluster: nd})
	pr, err := s.decodeRequest([]byte(`{"model":"rw","size":4,"engine":"exhaustive"}`), bodyDigest{})
	if err != nil {
		t.Fatal(err)
	}
	return s, pr
}

// TestTierOwnerAnswersLocally: a node settles a key it owns in its own
// cache: the lease, then the put, then a hit.
func TestTierOwnerAnswersLocally(t *testing.T) {
	s, pr := loneOwner(t)
	ctx := context.Background()
	if _, out := s.tierAcquire(ctx, pr); out != tierLease {
		t.Fatalf("first acquire: outcome %d, want the lease", out)
	}
	pr.lease = true
	resp := &Response{RunID: pr.key.RunID(), Status: StatusOK, States: 7, Complete: true}
	s.cacheResult(pr, resp)
	s.tierSettle(pr, resp)
	got, out := s.tierAcquire(ctx, pr)
	if out != tierHit || got.States != 7 || !got.Cached {
		t.Fatalf("acquire after the put: %+v, outcome %d; want a hit", got, out)
	}
}

// TestTierTimedOutWaiterHoldsNoLease: a requester whose wait behind a
// lease runs out computes without one, so settling its failed run gives
// nothing back, and the next requester still waits for the real holder.
func TestTierTimedOutWaiterHoldsNoLease(t *testing.T) {
	s, pr := loneOwner(t)
	ctx := context.Background()
	if _, out := s.tierAcquire(ctx, pr); out != tierLease {
		t.Fatalf("first acquire: outcome %d, want the lease", out)
	}

	waiter := *pr
	waiter.timeout = 10 * time.Millisecond
	_, out := s.tierAcquire(ctx, &waiter)
	if out != tierCompute {
		t.Fatalf("acquire whose wait ran out: outcome %d, want compute without a lease", out)
	}
	waiter.lease = out == tierLease // as handleVerify does
	s.tierSettle(&waiter, nil)      // its run failed

	third := *pr
	third.timeout = 50 * time.Millisecond
	start := time.Now()
	if _, out := s.tierAcquire(ctx, &third); out != tierCompute || time.Since(start) < third.timeout {
		t.Fatalf("third acquire: outcome %d after %v; want it to wait out the first lease", out, time.Since(start))
	}
	if got := counter(s, "cluster.singleflight_waits"); got != 2 {
		t.Errorf("cluster.singleflight_waits = %d, want 2", got)
	}
}

// TestTierSingleFlight: of many requesters acquiring one key at once,
// exactly one holds the lease; its put answers all the others.
func TestTierSingleFlight(t *testing.T) {
	c := newResultCache(1<<20, obs.New())
	key := cacheKey{3}
	const n = 8
	outs := make(chan tierOutcome, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			_, out := c.acquire(context.Background(), key, time.Minute)
			if out == tierLease {
				c.put(key, &Response{Status: StatusOK, Complete: true})
			}
			outs <- out
		}()
	}
	wg.Wait()
	close(outs)
	count := map[tierOutcome]int{}
	for out := range outs {
		count[out]++
	}
	if count[tierLease] != 1 || count[tierHit] != n-1 {
		t.Fatalf("outcomes %v; want one lease and %d hits", count, n-1)
	}
}
