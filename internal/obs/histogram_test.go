package obs

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBucketIndexBounds(t *testing.T) {
	// Every probed value must land in a bucket whose bounds contain it.
	probes := []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345, 1 << 62}
	for _, v := range probes {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v >= hi {
			t.Errorf("value %d -> bucket %d [%d,%d): not contained", v, idx, lo, hi)
		}
	}
	// Negative values clamp to bucket 0.
	if got := bucketIndex(-5); got != 0 {
		t.Errorf("bucketIndex(-5) = %d, want 0", got)
	}
}

func TestBucketBoundsMonotonic(t *testing.T) {
	var prevHi int64
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d (gap or overlap)", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%d,%d)", i, lo, hi)
		}
		prevHi = hi
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Log-linear layout with 8 sub-buckets bounds relative width at
	// 1/8 = 12.5% for values past the exact range.
	for _, v := range []int64{100, 999, 12345, 1 << 30} {
		lo, hi := bucketBounds(bucketIndex(v))
		if width := hi - lo; float64(width) > 0.125*float64(lo)+1 {
			t.Errorf("value %d: bucket [%d,%d) wider than 12.5%% of lo", v, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Latency-shaped: mostly ~100µs with a heavy 10ms tail.
		v := int64(80_000 + rng.Intn(40_000))
		if i%100 == 0 {
			v = int64(9_000_000 + rng.Intn(2_000_000))
		}
		vals = append(vals, v)
		h.Observe(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("Count = %d", s.Count)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := int64(s.Quantile(q))
		if rel := float64(got-exact) / float64(exact); rel > 0.13 || rel < -0.13 {
			t.Errorf("q%.3f = %d, exact %d (rel err %.1f%%)", q, got, exact, rel*100)
		}
	}
	if got := s.Quantile(1); int64(got) != vals[len(vals)-1] {
		t.Errorf("Quantile(1) = %d, want exact max %d", got, vals[len(vals)-1])
	}
	if got, want := s.MaxValue(), time.Duration(vals[len(vals)-1]); got != want {
		t.Errorf("MaxValue = %v, want %v", got, want)
	}
	var sum int64
	for _, v := range vals {
		sum += v
	}
	if got, want := s.Mean(), time.Duration(sum/10000); got != want {
		t.Errorf("Mean = %v, want exact %v", got, want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.MaxValue() != 0 {
		t.Errorf("empty histogram not all-zero: %v %v %v", s.Quantile(0.5), s.Mean(), s.MaxValue())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i * 1000)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
		both.Observe(d)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	want := both.Snapshot()
	if merged != want {
		t.Fatal("merged snapshot differs from directly observed one")
	}
}

// TestSnapshotObserve: recording into plain snapshot buckets and
// folding them into a live histogram lands on exactly what observing
// the live histogram directly does, across several folds.
func TestSnapshotObserve(t *testing.T) {
	var direct, folded Histogram
	var pending HistogramSnapshot
	for i := 0; i < 1000; i++ {
		d := time.Duration((i*7919)%100000 - 50) // a few negatives clamp into bucket 0
		direct.Observe(d)
		pending.Observe(d)
		if i%97 == 0 {
			folded.AddSnapshot(pending)
			pending = HistogramSnapshot{}
		}
	}
	folded.AddSnapshot(pending)
	if got, want := folded.Snapshot(), direct.Snapshot(); got != want {
		t.Fatalf("folded snapshot differs: count %d sum %d max %d, want %d %d %d",
			got.Count, got.Sum, got.Max, want.Count, want.Sum, want.Max)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Exercised under -race: concurrent observers and a reader.
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*1000 + i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				h.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := h.Count(); got != 4000 {
		t.Fatalf("Count = %d, want 4000", got)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += atomic.LoadInt64(&h.counts[i])
	}
	return n
}
