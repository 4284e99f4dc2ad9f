package obs

import (
	"math"
	"testing"
)

// TestQuantileExtremes pins the q=0/q=1 contract: the extremes come
// from the exactly-tracked Min/Max, not from bucket upper bounds.
func TestQuantileExtremes(t *testing.T) {
	cases := []struct {
		name string
		obs  []int64
		min  int64
		max  int64
	}{
		{"mid-bucket", []int64{5, 6, 7}, 5, 7},
		{"spread", []int64{3, 100, 1000}, 3, 1000},
		{"negative", []int64{-9, -1}, -9, -1},
		{"mixed-sign", []int64{-4, 0, 12}, -4, 12},
		{"single", []int64{42}, 42, 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram()
			for _, v := range tc.obs {
				h.Observe(v)
			}
			if got := h.Quantile(0); got != tc.min {
				t.Errorf("Quantile(0) = %d, want Min %d", got, tc.min)
			}
			if got := h.Quantile(1); got != tc.max {
				t.Errorf("Quantile(1) = %d, want Max %d", got, tc.max)
			}
			// Out-of-range q clamps to the same extremes.
			if got := h.Quantile(-0.5); got != tc.min {
				t.Errorf("Quantile(-0.5) = %d, want Min %d", got, tc.min)
			}
			if got := h.Quantile(1.5); got != tc.max {
				t.Errorf("Quantile(1.5) = %d, want Max %d", got, tc.max)
			}
		})
	}
}

// TestQuantileCeilRank pins the interior-quantile rank rule to the ceil
// nearest-rank definition rank = ⌈q·n⌉ — the same rule the run ledger's
// quantile uses (internal/obs/ledger), so the histogram view and the
// ledger summary of the same runs agree. Observations sit on bucket
// upper edges (7, 15, 31) so the bucketed answer is the exact rank-th
// value, with n = 1, 2, 3 at q = 0.5 and 0.9.
func TestQuantileCeilRank(t *testing.T) {
	cases := []struct {
		obs      []int64
		p50, p90 int64
	}{
		{[]int64{7}, 7, 7},           // n=1: rank 1 / rank 1
		{[]int64{7, 15}, 7, 15},      // n=2: ⌈1.0⌉=1 / ⌈1.8⌉=2
		{[]int64{7, 15, 31}, 15, 31}, // n=3: ⌈1.5⌉=2 / ⌈2.7⌉=3
	}
	for _, tc := range cases {
		h := newHistogram()
		for _, v := range tc.obs {
			h.Observe(v)
		}
		if got := h.Quantile(0.5); got != tc.p50 {
			t.Errorf("n=%d: Quantile(0.5) = %d, want %d", len(tc.obs), got, tc.p50)
		}
		if got := h.Quantile(0.9); got != tc.p90 {
			t.Errorf("n=%d: Quantile(0.9) = %d, want %d", len(tc.obs), got, tc.p90)
		}
	}
}

// TestQuantilePowerOfTwoBoundaries pins bucket placement at exact
// powers of two: 2^k is the first value of bucket k+1 ([2^k, 2^(k+1)))
// and 2^k−1 the last of bucket k, so quantiles that land on either side
// of the boundary answer with the matching bucket's upper edge.
func TestQuantilePowerOfTwoBoundaries(t *testing.T) {
	cases := []struct {
		name string
		obs  []int64
		q    float64
		want int64
	}{
		// 63 = 2^6−1 is the top of bucket 6; 64 = 2^6 opens bucket 7.
		{"below-boundary", []int64{63, 63}, 0.5, 63},
		{"at-boundary", []int64{64, 64}, 0.5, 64},        // bucket 7 edge 127 clamped to max
		{"straddle-low", []int64{63, 64}, 0.5, 63},       // rank 1 falls in bucket 6
		{"straddle-high", []int64{63, 64}, 0.75, 64},     // rank 2 falls in bucket 7, clamped
		{"one", []int64{1}, 0.5, 1},                      // 1 = 2^0 opens bucket 1
		{"two", []int64{2}, 0.5, 2},                      // 2 = 2^1 opens bucket 2, edge 3 clamps
		{"big", []int64{1 << 40}, 0.5, 1 << 40},          // clamped to max
		{"zero", []int64{0}, 0.5, 0},                     // bucket 0 upper edge is 0
		{"negative-only", []int64{-8, -2}, 0.5, -2},      // bucket 0 clamped to max
		{"unclamped-upper", []int64{4, 5, 6, 7}, 0.5, 7}, // bucket 3 edge exactly
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram()
			for _, v := range tc.obs {
				h.Observe(v)
			}
			if got := h.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%v) over %v = %d, want %d", tc.q, tc.obs, got, tc.want)
			}
		})
	}
}

// TestSnapshotBuckets checks the snapshot's additive buckets field:
// non-empty buckets only, correct inclusive upper edges, counts summing
// to Count.
func TestSnapshotBuckets(t *testing.T) {
	h := newHistogram()
	for _, v := range []int64{-1, 0, 1, 2, 3, 64, 64} {
		h.Observe(v)
	}
	s := h.snapshot()
	want := []HistogramBucket{
		{LE: 0, Count: 2},   // -1, 0
		{LE: 1, Count: 1},   // 1
		{LE: 3, Count: 2},   // 2, 3
		{LE: 127, Count: 2}, // 64, 64
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("Buckets = %+v, want %+v", s.Buckets, want)
	}
	var total int64
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("Buckets[%d] = %+v, want %+v", i, b, want[i])
		}
		total += b.Count
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, want Count %d", total, s.Count)
	}
	if empty := newHistogram().snapshot(); empty.Buckets != nil {
		t.Errorf("empty histogram snapshot has buckets: %+v", empty.Buckets)
	}
}

// TestSumSaturates pins the sum at math.MaxInt64 once the observations
// pass it, as three |r| values of 2⁶³−1 do on nsdp(40): the sum must not
// wrap, and the mean must not fall below the minimum.
func TestSumSaturates(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 3; i++ {
		h.Observe(math.MaxInt64)
	}
	if h.Sum() != math.MaxInt64 || h.Mean() < float64(h.Min()) {
		t.Errorf("three MaxInt64 observations: Sum %d, Mean %g, Min %d; want Sum MaxInt64 and Mean ≥ Min",
			h.Sum(), h.Mean(), h.Min())
	}
	merged := New()
	merged.Histogram("h").Observe(1)
	from := New()
	from.Histogram("h").Observe(math.MaxInt64)
	merged.Merge(from)
	if got := merged.Histogram("h").Sum(); got != math.MaxInt64 {
		t.Errorf("merged sum %d, want MaxInt64", got)
	}
}
