// Package stats provides the statistical utilities the reproduction
// relies on: percentile/CDF summaries of latency samples, a two-sample
// chi-squared test (used by the GC-volume
// diagnosis, Fig. 5 of the paper), and windowed throughput series.
//
// Only the standard library is used; the chi-squared p-value is computed
// from the regularized incomplete gamma function implemented in gamma.go.
package stats

import (
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers order-statistic and
// moment queries. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
	sumsq  float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
	s.sumsq += x * x
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

// StdDev returns the population standard deviation, or 0 for fewer than
// two observations.
func (s *Sample) StdDev() float64 {
	n := float64(len(s.xs))
	if n < 2 {
		return 0
	}
	v := s.sumsq/n - (s.sum/n)*(s.sum/n)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	s.ensureSorted()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	s.ensureSorted()
	if len(s.xs) == 0 {
		return 0
	}
	return s.xs[len(s.xs)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. Empty samples return 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	s.ensureSorted()
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// CDFAt returns the empirical cumulative probability P(X <= x).
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, x)
	// Move past equal values so the CDF is right-continuous.
	for i < len(s.xs) && s.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(s.xs))
}

// CDF returns up to points (x, P(X<=x)) pairs tracing the empirical CDF,
// evenly spaced in probability. Useful for Fig. 1a / Fig. 5a style plots.
func (s *Sample) CDF(points int) []CDFPoint {
	if len(s.xs) == 0 || points <= 0 {
		return nil
	}
	s.ensureSorted()
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := i*len(s.xs)/points - 1
		out = append(out, CDFPoint{X: s.xs[idx], P: float64(idx+1) / float64(len(s.xs))})
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // observation value
	P float64 // cumulative probability
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// ThroughputSeries converts completion events into a windowed throughput
// time series: bytes completed per window, reported in MB/s.
type ThroughputSeries struct {
	Window  float64 // window length in seconds
	buckets map[int]float64
	maxIdx  int
}

// NewThroughputSeries returns a series with the given window length in
// seconds. It panics if window <= 0.
func NewThroughputSeries(window float64) *ThroughputSeries {
	if window <= 0 {
		panic("stats: non-positive throughput window")
	}
	return &ThroughputSeries{Window: window, buckets: make(map[int]float64)}
}

// Record adds bytes completed at time t (seconds).
func (t *ThroughputSeries) Record(at float64, bytes int) {
	idx := int(at / t.Window)
	t.buckets[idx] += float64(bytes)
	if idx > t.maxIdx {
		t.maxIdx = idx
	}
}

// Series returns MB/s per window from time zero through the last recorded
// window, with empty windows reported as zero.
func (t *ThroughputSeries) Series() []float64 {
	out := make([]float64, t.maxIdx+1)
	for i := range out {
		out[i] = t.buckets[i] / t.Window / 1e6
	}
	return out
}

// Mean returns the average throughput across all windows in MB/s.
func (t *ThroughputSeries) Mean() float64 {
	s := t.Series()
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// CoefficientOfVariation returns stddev/mean of the windowed series; a
// measure of the throughput fluctuation in Fig. 1b / Fig. 3b.
func (t *ThroughputSeries) CoefficientOfVariation() float64 {
	s := t.Series()
	if len(s) < 2 {
		return 0
	}
	var sample Sample
	for _, v := range s {
		sample.Add(v)
	}
	m := sample.Mean()
	if m == 0 {
		return 0
	}
	return sample.StdDev() / m
}
