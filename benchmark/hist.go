package main

import "math/bits"

// hist is a single-owner log-linear histogram of non-negative
// nanosecond values: exact below histSub, then histSub linear
// sub-buckets per power of two (relative bucket width 1/64 ≈ 1.6 %).
// It is the benchmark's own recorder for client call times and for
// simulated service latencies, so a quantile is a pure function of the
// values recorded — the same inputs give bit-identical quantiles on any
// host. Not safe for concurrent use: every client owns one and the
// harness merges them after the clients have stopped.
type hist struct {
	counts [histBuckets]int64
	n      int64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 62
	histBuckets = histSub + (histMaxExp-histSubBits+1)*histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int(v>>(uint(exp)-histSubBits)) & (histSub - 1)
	return histSub + (exp-histSubBits)*histSub + sub
}

func histBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	exp := histSubBits + (idx-histSub)/histSub
	sub := (idx - histSub) % histSub
	width := float64(int64(1) << (uint(exp) - histSubBits))
	lo = float64(histSub+sub) * width
	return lo, lo + width
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the winning bucket and clamped to the largest value seen. An empty
// histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			lo, hi := histBounds(i)
			v := lo + (hi-lo)*float64(rank-(seen-c))/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
	}
	return float64(h.max)
}
