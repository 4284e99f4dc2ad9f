package server

import (
	"fmt"
	"testing"

	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/verify"
)

func mustNet(t *testing.T, fam string, size int) *petri.Net {
	t.Helper()
	n, err := models.ByName(fam, size)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRequestKeyDiscriminates pins what the content address depends on:
// the net, the check, the bad set, and the result-determining options —
// and what it deliberately ignores: Workers (bit-identical results).
func TestRequestKeyDiscriminates(t *testing.T) {
	n4 := mustNet(t, "nsdp", 4)
	n6 := mustNet(t, "nsdp", 6)
	base := requestKey(n4, CheckDeadlock, nil, verify.Options{Engine: verify.GPO})

	distinct := map[string]cacheKey{
		"other-net":    requestKey(n6, CheckDeadlock, nil, verify.Options{Engine: verify.GPO}),
		"other-check":  requestKey(n4, CheckSafety, []petri.Place{0, 1}, verify.Options{Engine: verify.GPO}),
		"other-engine": requestKey(n4, CheckDeadlock, nil, verify.Options{Engine: verify.Exhaustive}),
		"stop-first":   requestKey(n4, CheckDeadlock, nil, verify.Options{Engine: verify.GPO, StopAtFirst: true}),
		"max-states":   requestKey(n4, CheckDeadlock, nil, verify.Options{Engine: verify.GPO, MaxStates: 10}),
		"proviso":      requestKey(n4, CheckDeadlock, nil, verify.Options{Engine: verify.GPO, Proviso: true}),
	}
	seen := map[cacheKey]string{base: "base"}
	for name, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}

	same := requestKey(n4, CheckDeadlock, nil, verify.Options{Engine: verify.GPO, Workers: 8})
	if same != base {
		t.Error("Workers changed the cache key; parallel results are bit-identical and must share it")
	}
	rebuilt := requestKey(mustNet(t, "nsdp", 4), CheckDeadlock, nil, verify.Options{Engine: verify.GPO})
	if rebuilt != base {
		t.Error("the same net built twice hashed differently")
	}
}

// TestCacheLRUEviction fills a small cache past its byte budget and
// checks cold entries fall out, recency is respected, and the obs
// counters track it all.
func TestCacheLRUEviction(t *testing.T) {
	reg := obs.New()
	// Budget for roughly 3 minimal entries (each ~300 bytes).
	c := newResultCache(1000, reg)
	key := func(i int) cacheKey {
		var k cacheKey
		k[0] = byte(i)
		return k
	}
	resp := func(i int) *Response {
		return &Response{Status: StatusOK, Net: fmt.Sprintf("n%d", i), Complete: true}
	}
	for i := 0; i < 3; i++ {
		c.put(key(i), resp(i))
	}
	if entries, _ := c.stats(); entries != 3 {
		t.Fatalf("entries = %d, want 3", entries)
	}
	// Touch 0 so 1 is now the coldest, then overflow.
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("entry 0 missing")
	}
	c.put(key(3), resp(3))
	if _, ok := c.get(key(1)); ok {
		t.Error("coldest entry 1 survived an over-budget insert")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.get(key(i)); !ok {
			t.Errorf("entry %d evicted, want kept", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cache_evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["server.cache_evictions"])
	}
	if _, bytes := c.stats(); bytes > 1000 {
		t.Errorf("cache holds %d bytes over its 1000-byte budget", bytes)
	}

	got, ok := c.get(key(2))
	if !ok || !got.Cached || got.Net != "n2" {
		t.Fatalf("get(2) = %+v, %v", got, ok)
	}
	if raw, _ := c.get(key(2)); raw == got {
		t.Error("get returned the same *Response twice; must copy")
	}
}

// TestCacheWitnessIsolation pins the deep-copy contract on both cache
// boundaries: a caller mutating the Response it put (or the copy it
// got) must never reach the stored entry. Without the copies, a
// mutated witness would silently change served results AND desync the
// byte accounting from entrySize's admission-time charge.
func TestCacheWitnessIsolation(t *testing.T) {
	c := newResultCache(1<<20, obs.New())
	orig := &Response{
		Status:   StatusOK,
		Net:      "w",
		Deadlock: true,
		Witness:  []string{"p0", "p1"},
		Complete: true,
	}
	c.put(cacheKey{7}, orig)
	_, bytesAtPut := c.stats()

	// Mutate the caller's Response after put — the lease-settle path in
	// Server.run does exactly this kind of post-put decoration.
	orig.Witness[0] = "CLOBBERED-BY-CALLER-WITH-A-MUCH-LONGER-STRING"
	got, ok := c.get(cacheKey{7})
	if !ok {
		t.Fatal("entry missing")
	}
	if got.Witness[0] != "p0" || got.Witness[1] != "p1" {
		t.Fatalf("put did not deep-copy: cached witness = %v", got.Witness)
	}

	// Mutate the served copy — the next get must still be pristine.
	got.Witness[1] = "CLOBBERED-BY-READER"
	again, _ := c.get(cacheKey{7})
	if again.Witness[0] != "p0" || again.Witness[1] != "p1" {
		t.Fatalf("get did not deep-copy: second read = %v", again.Witness)
	}
	if _, bytesNow := c.stats(); bytesNow != bytesAtPut {
		t.Fatalf("byte accounting drifted: %d at put, %d now", bytesAtPut, bytesNow)
	}
}

// TestCacheOversizedEntryNotStored pins the "larger than the whole
// budget" guard.
func TestCacheOversizedEntryNotStored(t *testing.T) {
	c := newResultCache(100, obs.New())
	big := &Response{Status: StatusOK, Net: string(make([]byte, 200)), Complete: true}
	c.put(cacheKey{1}, big)
	if entries, _ := c.stats(); entries != 0 {
		t.Fatalf("oversized entry was cached (%d entries)", entries)
	}
}
