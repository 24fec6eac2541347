package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear, HDR-style. Values are latencies
// in nanoseconds. The first subCount buckets are exact (one bucket per
// nanosecond); above that each power of two is split into subCount
// linear sub-buckets, bounding the relative quantile error at
// 1/subCount = 12.5% while keeping memory fixed (~500 buckets) and
// recording to two atomic adds — no sorting, no sampling window, no
// per-request allocation.
const (
	subBits  = 3
	subCount = 1 << subBits // sub-buckets per power of two

	// maxExp covers values up to 2^62 ns (~146 years of virtual time);
	// anything larger clamps into the final bucket.
	maxExp     = 62
	numBuckets = subCount + (maxExp-subBits+1)*subCount
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= subBits
	if exp > maxExp {
		return numBuckets - 1
	}
	sub := int((v >> (uint(exp) - subBits)) & (subCount - 1))
	return subCount + (exp-subBits)*subCount + sub
}

// bucketBounds returns the value range [lo, hi) a bucket covers. The
// final bucket's upper edge would be 2^63 — one past int64 — so it
// clamps to MaxInt64, which the index function also clamps into it.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < subCount {
		return int64(idx), int64(idx) + 1
	}
	exp := subBits + (idx-subCount)/subCount
	sub := int64((idx - subCount) % subCount)
	width := int64(1) << (uint(exp) - subBits)
	lo = (int64(subCount) + sub) * width
	hi = lo + width
	if hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}

// Histogram is a fixed-memory log-bucketed latency histogram safe for
// arbitrary concurrent use, at the cost of snapshots being only
// eventually consistent across buckets (fine for monitoring). The
// observation count is the bucket total — not a separate atomic — so
// the hot path pays exactly two uncontended atomic adds (bucket, sum)
// plus one load for the max check.
//
// The handle Registry.Histogram returns for a HistogramFunc series
// stores nothing: Snapshot returns what the function does, and Observe
// and AddSnapshot do not change that.
type Histogram struct {
	counts [numBuckets]int64 // accessed atomically
	sum    atomic.Int64
	max    atomic.Int64
	fn     func() HistogramSnapshot
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	atomic.AddInt64(&h.counts[bucketIndex(v)], 1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// AddSnapshot folds a previously captured snapshot into the live
// histogram. The fleet uses it when a device attaches to a new manager:
// the device's latency history, carried across as a snapshot, lands in
// the new registry's series so merged views stay cumulative across
// moves.
func (h *Histogram) AddSnapshot(s HistogramSnapshot) {
	for i, c := range s.Counts {
		if c != 0 {
			atomic.AddInt64(&h.counts[i], c)
		}
	}
	if s.Sum != 0 {
		h.sum.Add(s.Sum)
	}
	for {
		m := h.max.Load()
		if s.Max <= m || h.max.CompareAndSwap(m, s.Max) {
			return
		}
	}
}

// Snapshot captures the histogram for quantile queries and merging.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h.fn != nil {
		return h.fn()
	}
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = atomic.LoadInt64(&h.counts[i])
		s.Count += s.Counts[i]
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. The zero
// value is an empty histogram ready for Merge.
type HistogramSnapshot struct {
	Counts [numBuckets]int64
	Count  int64
	Sum    int64
	Max    int64
}

// Observe records one latency into s, exactly as Histogram.Observe
// would. A snapshot doubles as a plain histogram for a writer that
// already serializes its observations under its own lock: it records
// here with no atomic operations and folds the result into a shared
// Histogram with AddSnapshot.
func (s *HistogramSnapshot) Observe(d time.Duration) {
	v := int64(d)
	s.Counts[bucketIndex(v)]++
	s.Count++
	s.Sum += v
	if v > s.Max {
		s.Max = v
	}
}

// Merge adds o's observations into s — how fleet-wide latency views
// are built from per-device histograms without touching raw samples.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Mean returns the exact mean latency (Sum covers every observation,
// not a window).
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// MaxValue returns the largest observed latency.
func (s *HistogramSnapshot) MaxValue() time.Duration { return time.Duration(s.Max) }

// Quantile returns the q-quantile (q in [0,1]) latency, linearly
// interpolated inside the winning bucket. It is a pure function of the
// bucket counts, so it is deterministic regardless of shard count or
// observation order — unlike a sorted sliding window.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based ceiling so Quantile(0)
	// is the minimum and Quantile(1) the maximum bucket.
	rank := int64(q*float64(s.Count-1)) + 1
	var seen int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			// Interpolate by the rank's position within this bucket.
			pos := float64(rank-(seen-c)) / float64(c)
			v := float64(lo) + pos*float64(hi-lo)
			if int64(v) > s.Max && s.Max > 0 {
				return time.Duration(s.Max)
			}
			return time.Duration(v)
		}
	}
	return time.Duration(s.Max)
}
