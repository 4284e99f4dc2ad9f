package obs

import (
	"runtime/metrics"
	"time"
)

// SpanRecord is one finished span: a named phase with its wall-clock
// duration and the heap allocations made while it ran. Allocation counts
// are process-wide, so overlapping spans double-count allocations; the
// engines only nest spans (phase inside run), where the outer span's
// count legitimately includes the inner one's.
type SpanRecord struct {
	Name string `json:"name"`
	// StartUnixNS is the span's start time (UnixNano of the registry's
	// clock), kept as an integer so records survive a JSON round trip
	// bit-for-bit.
	StartUnixNS int64 `json:"start_unix_ns"`
	WallNS      int64 `json:"wall_ns"`
	// AllocBytes and Mallocs are the bytes and objects allocated during
	// the span, what MemStats.TotalAlloc and MemStats.Mallocs count, as
	// runtime/metrics reports them: small objects are counted when their
	// span leaves the allocating P's cache, so a delta misses what the
	// caches still hold, tens of KB. On 2 vCPUs (go1.24) a symbolic
	// nsdp(8) span reads 7.78 of 7.79 MB, an explicit nsdp(7) one 483 of
	// 526 KB and 8 of 47 objects: a large phase's figure, not a small one's.
	AllocBytes int64 `json:"alloc_bytes"`
	Mallocs    int64 `json:"mallocs"`
}

// Wall returns the span's wall-clock duration.
func (s SpanRecord) Wall() time.Duration { return time.Duration(s.WallNS) }

// Span is an in-flight phase measurement. Obtain one from
// Registry.StartSpan and finish it with End; a nil *Span is valid and
// End is a no-op.
type Span struct {
	r          *Registry
	name       string
	start      time.Time
	allocBytes uint64
	mallocs    uint64
	// samples is the span's own runtime/metrics buffer, so that reading
	// the counters allocates nothing.
	samples [3]metrics.Sample
}

// readAllocs returns the bytes and objects the process has allocated,
// read from runtime/metrics without stopping the world, which MemStats
// costs: MemStats.TotalAlloc is the first counter, MemStats.Mallocs the
// sum of the other two (the heap's allocation count leaves out tiny
// objects, which are packed into shared blocks and counted apart).
func (s *Span) readAllocs() (bytes, objects uint64) {
	s.samples = [...]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s.samples[:])
	return s.samples[0].Value.Uint64(), s.samples[1].Value.Uint64() + s.samples[2].Value.Uint64()
}

// StartSpan begins a named span. Returns nil on a nil registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{r: r, name: name, start: r.now()}
	sp.allocBytes, sp.mallocs = sp.readAllocs()
	return sp
}

// End finishes the span, appends its record to the registry and returns
// the wall-clock duration. Safe on a nil span.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	wall := s.r.now().Sub(s.start)
	bytes, objects := s.readAllocs()
	rec := SpanRecord{
		Name:        s.name,
		StartUnixNS: s.start.UnixNano(),
		WallNS:      int64(wall),
		AllocBytes:  int64(bytes - s.allocBytes),
		Mallocs:     int64(objects - s.mallocs),
	}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	s.r.mu.Unlock()
	return wall
}

// Spans returns a copy of the finished span records in completion order.
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	return out
}
