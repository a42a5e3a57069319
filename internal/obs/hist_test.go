package obs

import (
	"math"
	"testing"
)

// TestBucketTableInvariants pins the bucket-boundary functions to each
// other: bounds strictly increase, every bound maps back to its own
// bucket, and the table covers the full non-negative int64 range.
func TestBucketTableInvariants(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < histNumBuckets; i++ {
		ub := bucketUB(i)
		if ub <= prev {
			t.Fatalf("bucketUB(%d) = %d, not above bucketUB(%d) = %d", i, ub, i-1, prev)
		}
		if got := bucketIdx(ub); got != i {
			t.Fatalf("bucketIdx(bucketUB(%d)) = %d, want %d", i, got, i)
		}
		prev = ub
	}
	if got := bucketIdx(0); got != 0 {
		t.Fatalf("bucketIdx(0) = %d, want 0", got)
	}
	if got := bucketIdx(-5); got != 0 {
		t.Fatalf("bucketIdx(-5) = %d, want 0 (negatives clamp)", got)
	}
	if got := bucketIdx(math.MaxInt64); got != histNumBuckets-1 {
		t.Fatalf("bucketIdx(MaxInt64) = %d, want %d", got, histNumBuckets-1)
	}
	if got := bucketUB(histNumBuckets - 1); got != math.MaxInt64 {
		t.Fatalf("bucketUB(last) = %d, want MaxInt64", got)
	}
}

// histFrom builds a snapshot from a fixed observation list.
func histFrom(obsv ...int64) HistogramSnapshot {
	h := newHistogram()
	for _, v := range obsv {
		h.Observe(v)
	}
	return h.snapshot()
}

func TestQuantileRelativeErrorBound(t *testing.T) {
	// The quantile estimate is the upper bound of the rank bucket, so it
	// is never below the true value and overshoots by at most one
	// sub-bucket width (12.5% relative).
	for _, v := range []int64{1, 9, 100, 1023, 1 << 30} {
		s := histFrom(v)
		q := s.Quantile(0.5)
		if q < v {
			t.Fatalf("Quantile below true value: %d < %d", q, v)
		}
		if float64(q-v) > 0.125*float64(v)+1 {
			t.Fatalf("Quantile(0.5) of {%d} = %d, beyond 12.5%% relative error", v, q)
		}
	}
}
