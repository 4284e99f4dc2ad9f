package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// nbuckets covers bucket 0 (values ≤ 0) plus one bucket per bit length of
// a positive int64.
const nbuckets = 65

// Histogram records int64 observations in power-of-two buckets: bucket i
// (i ≥ 1) holds values in [2^(i-1), 2^i). Quantiles are therefore exact
// to a factor of two, which is the right resolution for the quantities
// the engines track (stubborn-set sizes, valid-set counts, queue depths)
// while staying fixed-size and lock-free. Create histograms through
// Registry.Histogram; a nil *Histogram is valid and all its methods are
// no-ops.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [nbuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// addSat adds v to s, saturating at math.MaxInt64 instead of wrapping
// (three valid-set counts of 2⁶³−1 would sum to a negative number).
func addSat(s *atomic.Int64, v int64) {
	for {
		cur := s.Load()
		next := cur + v
		if v > 0 && next < cur {
			next = math.MaxInt64
		}
		if s.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	addSat(&h.sum, v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations, saturated at math.MaxInt64.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation (0 if none).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean (0 if none), clamped to [Min, Max],
// where the mean lies: a saturated sum would place it below.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	mean := float64(h.sum.Load()) / float64(n)
	return min(max(mean, float64(h.min.Load())), float64(h.max.Load()))
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// inclusive upper edge of the power-of-two bucket containing the ⌈q·n⌉-th
// smallest observation, clamped to the observed [Min, Max] range. The
// extremes are exact — q=0 returns Min and q=1 returns Max, since both
// are tracked precisely — and everything in between is exact to a
// factor of two by construction.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min.Load()
	}
	if q >= 1 {
		return h.max.Load()
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i := 0; i < nbuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			// Bucket 0 holds every value ≤ 0, so its inclusive upper
			// edge is 0; clamping to Max keeps an all-negative
			// histogram honest.
			upper := int64(0)
			if i > 0 {
				upper = int64(1)<<uint(i) - 1
			}
			if mx := h.max.Load(); mx < upper {
				return mx
			}
			return upper
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is the exported summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	// Buckets lists the non-empty power-of-two buckets, so the JSON
	// snapshot carries the same distribution the Prometheus exposition
	// derives its cumulative _bucket series from.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty bucket: Count observations with
// value ≤ LE (the bucket's inclusive upper edge: 0, 1, 3, 7, …, 2^i−1).
type HistogramBucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// bucketUpper is the inclusive upper edge of bucket i.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for i := 0; i < nbuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{LE: bucketUpper(i), Count: n})
		}
	}
	return s
}
