package obs

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := New()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Re-resolve by name every few iterations to race the
			// get-or-create path too.
			c := r.Counter("test.hits")
			for j := 0; j < perG; j++ {
				if j%1000 == 0 {
					c = r.Counter("test.hits")
				}
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test.hits").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeConcurrentSetMax(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		start := int64(i * 1000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := r.Gauge("test.peak")
			for v := start; v < start+1000; v++ {
				g.SetMax(v)
			}
		}()
	}
	wg.Wait()
	if got := r.Gauge("test.peak").Value(); got != 7999 {
		t.Fatalf("peak gauge = %d, want 7999", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := r.Histogram("test.sizes")
			for v := int64(1); v <= 1000; v++ {
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	h := r.Histogram("test.sizes")
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 1/1000", h.Min(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("q")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	// Power-of-two buckets: the quantile is an upper bound within a
	// factor of two of the exact value.
	if p50 := h.Quantile(0.5); p50 < 500 || p50 > 1000 {
		t.Errorf("p50 = %d, want in [500,1000]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 990 || p99 > 1000 {
		t.Errorf("p99 = %d, want in [990,1000]", p99)
	}
	if p0 := h.Quantile(0); p0 < 1 || p0 > 2 {
		t.Errorf("p0 = %d, want in [1,2] (first observation's bucket)", p0)
	}
	if p100 := h.Quantile(1); p100 != 1000 {
		t.Errorf("p100 = %d, want 1000 (clamped to max)", p100)
	}
	if mean := h.Mean(); mean != 500.5 {
		t.Errorf("mean = %v, want 500.5", mean)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	r := New()
	h := r.Histogram("one")
	h.Observe(7)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %d, want 7", q, got)
		}
	}
	if h.Min() != 7 || h.Max() != 7 {
		t.Errorf("min/max = %d/%d, want 7/7", h.Min(), h.Max())
	}
}

func TestHistogramEmptyAndNonPositive(t *testing.T) {
	r := New()
	h := r.Histogram("empty")
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(0)
	h.Observe(-5)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.Quantile(1) != 0 {
		t.Errorf("non-positive observations land in bucket 0, Quantile(1) = %d", h.Quantile(1))
	}
	if h.Min() != -5 {
		t.Errorf("min = %d, want -5", h.Min())
	}
}

func TestNilRegistryAndMetricsAreNoops(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter should stay 0")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.SetMax(9)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge should stay 0")
	}
	h := r.Histogram("z")
	h.Observe(10)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram should stay empty")
	}
	sp := r.StartSpan("phase")
	if d := sp.End(); d != 0 {
		t.Error("nil span End should return 0")
	}
	if got := r.Spans(); got != nil {
		t.Error("nil registry should have no spans")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
}

func TestRegistryReturnsSameMetric(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter should return the same instance per name")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("Gauge should return the same instance per name")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Error("Histogram should return the same instance per name")
	}
}

// populate fills a registry with one of everything, on a fake clock so
// the snapshot is deterministic.
func populate(t *testing.T) *Registry {
	t.Helper()
	clock := NewFakeClock(time.Unix(1000, 0))
	r := NewWithClock(clock)
	r.Counter("core.states").Add(523)
	r.Counter("core.arcs").Add(1200)
	r.Gauge("core.peak_valid").SetMax(9)
	h := r.Histogram("stubborn.set_size")
	for _, v := range []int64{1, 1, 2, 3, 8} {
		h.Observe(v)
	}
	sp := r.StartSpan("core.analyze")
	clock.Advance(250 * time.Millisecond)
	sp.End()
	return r
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	want := populate(t).Snapshot()
	b, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", &got, want)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "core.analyze" || got.Spans[0].WallNS != int64(250*time.Millisecond) {
		t.Errorf("span round trip: got %+v", got.Spans)
	}
}

func TestRegistryMerge(t *testing.T) {
	proc := New()
	proc.Counter("reach.states").Add(100)
	proc.Gauge("reach.queue_peak").Set(10)
	proc.Histogram("por.stubborn_size").Observe(4)
	s := proc.StartSpan("warmup")
	s.End()

	run := New()
	run.Counter("reach.states").Add(322)
	run.Counter("reach.edges").Add(7)
	run.Gauge("reach.queue_peak").Set(5) // below process peak: must not lower it
	run.Gauge("zdd.nodes_peak").Set(99)
	run.Histogram("por.stubborn_size").Observe(2)
	run.Histogram("por.stubborn_size").Observe(16)
	rs := run.StartSpan("verify.run")
	rs.End()

	proc.Merge(run)

	if got := proc.Counter("reach.states").Value(); got != 422 {
		t.Errorf("merged reach.states = %d, want 422", got)
	}
	if got := proc.Counter("reach.edges").Value(); got != 7 {
		t.Errorf("merged reach.edges = %d, want 7", got)
	}
	if got := proc.Gauge("reach.queue_peak").Value(); got != 10 {
		t.Errorf("merged reach.queue_peak = %d, want 10 (max fold)", got)
	}
	if got := proc.Gauge("zdd.nodes_peak").Value(); got != 99 {
		t.Errorf("merged zdd.nodes_peak = %d, want 99", got)
	}
	h := proc.Histogram("por.stubborn_size")
	if h.Count() != 3 || h.Sum() != 22 || h.Min() != 2 || h.Max() != 16 {
		t.Errorf("merged histogram count/sum/min/max = %d/%d/%d/%d, want 3/22/2/16",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
	// Spans are the run's own: the process registry keeps only its own
	// and grows by none per merged run.
	if spans := proc.Spans(); len(spans) != 1 || spans[0].Name != "warmup" {
		t.Errorf("process spans after merge = %v, want [warmup]", spans)
	}
	if spans := run.Spans(); len(spans) != 1 || spans[0].Name != "verify.run" {
		t.Errorf("run spans after merge = %v, want [verify.run]", spans)
	}

	// Nil folds are no-ops.
	proc.Merge(nil)
	(*Registry)(nil).Merge(run)
	if got := proc.Counter("reach.states").Value(); got != 422 {
		t.Errorf("nil merges changed state: reach.states = %d", got)
	}
}

// BenchmarkProgressAdd is the engine side of a run's live progress: one
// Counter.Add per state, with no sampler and with two goroutines reading
// the counter the way /v1/runs and an SSE stream do. check.sh requires
// "0 allocs/op" of both, so watching a run never costs the engine an
// allocation.
func BenchmarkProgressAdd(b *testing.B) {
	for _, samplers := range []int{0, 2} {
		b.Run(fmt.Sprintf("samplers=%d", samplers), func(b *testing.B) {
			var c Counter
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < samplers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							_ = c.Value()
							runtime.Gosched()
						}
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(1)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
