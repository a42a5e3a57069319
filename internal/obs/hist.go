package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// The histogram is HDR-style log-linear: each power-of-two octave is split
// into histSubBuckets equal-width sub-buckets, so relative quantile error
// is bounded by 1/histSubBuckets (12.5%) across the full int64 range with
// a fixed, small bucket table. Bucket boundaries are a pure function of
// the index — every histogram in every process buckets identically, which
// is what makes snapshot deltas exact and snapshots byte-reproducible
// under FakeClock.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
	// histNumBuckets is bucketIdx(math.MaxInt64)+1.
	histNumBuckets = (62-histSubBits+1)*histSubBuckets + histSubBuckets
)

// bucketIdx maps an observation to its bucket. Values below
// histSubBuckets get exact unit buckets; above that, the top histSubBits
// bits after the leading one select the sub-bucket within the octave.
// Negative observations clamp to bucket zero (the instrumented quantities
// are all counts and durations).
func bucketIdx(v int64) int {
	if v < histSubBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int((v >> uint(exp-histSubBits)) & (histSubBuckets - 1))
	return (exp-histSubBits+1)*histSubBuckets + sub
}

// bucketUB returns the inclusive upper bound of bucket idx; together with
// the previous bucket's bound it defines the half-open covered range.
// bucketUB(histNumBuckets-1) is math.MaxInt64.
func bucketUB(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	exp := idx/histSubBuckets + histSubBits - 1
	sub := idx % histSubBuckets
	width := int64(1) << uint(exp-histSubBits)
	return int64(1)<<uint(exp) + int64(sub+1)*width - 1
}

// Histogram is a log-bucketed (HDR-style) distribution of non-negative
// int64 observations. Bucket increments are atomic and commutative, so
// concurrent observers never perturb the final snapshot regardless of
// interleaving, and snapshots from different workers merge exactly
// (bucket-wise addition). Obtain instances from a Registry; a nil
// *Histogram is a no-op.
type Histogram struct {
	counts [histNumBuckets]atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 until the first observation
	max    atomic.Int64 // -1 until the first observation
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(-1)
	return h
}

// Observe records one value. Negative values clamp to zero. No-op on a
// nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(v)].Add(1)
	h.sum.Add(v)
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
}

// Bucket is one occupied histogram bucket: its table index, its inclusive
// upper bound, and the number of observations that landed in it.
type Bucket struct {
	Idx int   `json:"idx"`
	UB  int64 `json:"ub"`
	N   int64 `json:"n"`
}

// HistogramSnapshot is the point-in-time state of a Histogram: sparse
// occupied buckets in ascending index order plus derived summary
// statistics. Quantiles are bucket upper bounds clamped to Max, so their
// relative error is bounded by the bucket width (12.5%).
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	P50     int64    `json:"p50"`
	P95     int64    `json:"p95"`
	P99     int64    `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Idx: i, UB: bucketUB(i), N: n})
			s.Count += n
		}
	}
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	s.finalize()
	return s
}

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the rank-ceil(q*Count) observation, clamped to Max. Zero
// when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= rank {
			if b.UB > s.Max && s.Max > 0 {
				return s.Max
			}
			return b.UB
		}
	}
	return s.Max
}

// finalize recomputes the derived quantile fields from Buckets/Count/Max.
func (s *HistogramSnapshot) finalize() {
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
}

// subHist returns the bucket-wise delta s minus earlier. Min and Max are
// not recoverable for a window, so the delta keeps the later snapshot's
// extrema; quantiles are recomputed from the delta buckets.
func subHist(s, earlier HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count: s.Count - earlier.Count,
		Sum:   s.Sum - earlier.Sum,
		Min:   s.Min,
		Max:   s.Max,
	}
	prev := make(map[int]int64, len(earlier.Buckets))
	for _, b := range earlier.Buckets {
		prev[b.Idx] = b.N
	}
	for _, b := range s.Buckets {
		if n := b.N - prev[b.Idx]; n > 0 {
			d.Buckets = append(d.Buckets, Bucket{Idx: b.Idx, UB: b.UB, N: n})
		}
	}
	d.finalize()
	return d
}
