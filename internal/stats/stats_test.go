package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ssdcheck/internal/simclock"
)

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Len() != 8 {
		t.Fatalf("Len=%d", s.Len())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean=%v", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 1e-9 {
		t.Fatalf("StdDev=%v want 2", s.StdDev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max=%v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum=%v", s.Sum())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if s.Percentile(50) != 0 || s.CDFAt(1) != 0 {
		t.Fatal("empty sample percentile/CDF should be 0")
	}
	if s.CDF(10) != nil {
		t.Fatal("empty sample CDF should be nil")
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {99, 99.01}, {25, 25.75},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := simclock.NewRNG(seed)
		var s Sample
		n := 2 + r.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 2.5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			if v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAt(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 2, 3} {
		s.Add(x)
	}
	if got := s.CDFAt(2); got != 0.75 {
		t.Fatalf("CDFAt(2)=%v want 0.75", got)
	}
	if got := s.CDFAt(0.5); got != 0 {
		t.Fatalf("CDFAt(0.5)=%v want 0", got)
	}
	if got := s.CDFAt(3); got != 1 {
		t.Fatalf("CDFAt(3)=%v want 1", got)
	}
}

func TestCDFCurve(t *testing.T) {
	var s Sample
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF points=%d", len(pts))
	}
	if pts[len(pts)-1].P != 1 {
		t.Fatalf("last CDF point P=%v", pts[len(pts)-1].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P < pts[i-1].P {
			t.Fatal("CDF must be nondecreasing")
		}
	}
}

func TestValuesSortedCopy(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	s.Add(2)
	v := s.Values()
	if !sort.Float64sAreSorted(v) {
		t.Fatal("Values must be sorted")
	}
	v[0] = 99 // must not affect the sample
	if s.Min() != 1 {
		t.Fatal("Values must return a copy")
	}
}

func TestThroughputSeries(t *testing.T) {
	ts := NewThroughputSeries(1.0)
	ts.Record(0.1, 1e6)
	ts.Record(0.9, 1e6)
	ts.Record(2.5, 4e6)
	s := ts.Series()
	if len(s) != 3 {
		t.Fatalf("series len=%d", len(s))
	}
	if s[0] != 2 || s[1] != 0 || s[2] != 4 {
		t.Fatalf("series=%v", s)
	}
	if m := ts.Mean(); math.Abs(m-2) > 1e-12 {
		t.Fatalf("mean=%v", m)
	}
	if cv := ts.CoefficientOfVariation(); cv <= 0 {
		t.Fatalf("cv=%v should be positive for a fluctuating series", cv)
	}
}

func TestGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^-x (chi-squared df=2 CDF at 2x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := regularizedGammaP(1, x); math.Abs(got-want) > 1e-10 {
			t.Errorf("P(1,%v)=%v want %v", x, got, want)
		}
		if got := regularizedGammaQ(1, x); math.Abs(got-math.Exp(-x)) > 1e-10 {
			t.Errorf("Q(1,%v)=%v want %v", x, got, math.Exp(-x))
		}
	}
}

func TestGammaComplementarity(t *testing.T) {
	f := func(seed uint64) bool {
		r := simclock.NewRNG(seed)
		a := 0.5 + r.Float64()*20
		x := r.Float64() * 40
		p := regularizedGammaP(a, x)
		q := regularizedGammaQ(a, x)
		return p >= 0 && p <= 1 && q >= 0 && q <= 1 && math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquaredSurvivalKnown(t *testing.T) {
	// Chi-squared with 1 df at 3.841 ~ p=0.05; 2 df at 5.991 ~ p=0.05.
	cases := []struct {
		stat float64
		df   int
		want float64
	}{
		{3.841, 1, 0.05},
		{5.991, 2, 0.05},
		{6.635, 1, 0.01},
		{0, 3, 1},
	}
	for _, c := range cases {
		if got := ChiSquaredSurvival(c.stat, c.df); math.Abs(got-c.want) > 2e-3 {
			t.Errorf("surv(%v,%d)=%v want %v", c.stat, c.df, got, c.want)
		}
	}
	if !math.IsNaN(ChiSquaredSurvival(1, 0)) {
		t.Error("df=0 should yield NaN")
	}
}

func TestChiSquaredTwoSampleSameDistribution(t *testing.T) {
	r := simclock.NewRNG(1)
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = float64(60 + r.Intn(10))
		b[i] = float64(60 + r.Intn(10))
	}
	res := ChiSquaredTwoSample(a, b, 10)
	if res.PValue < 0.001 {
		t.Fatalf("same distribution rejected: p=%v stat=%v", res.PValue, res.Stat)
	}
}

func TestChiSquaredTwoSampleDifferentDistribution(t *testing.T) {
	r := simclock.NewRNG(2)
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = float64(60 + r.Intn(6))
		b[i] = float64(120 + r.Intn(12)) // doubled intervals, as a volume flip causes
	}
	res := ChiSquaredTwoSample(a, b, 10)
	if res.PValue > 1e-6 {
		t.Fatalf("different distributions not detected: p=%v", res.PValue)
	}
}

func TestChiSquaredDegenerate(t *testing.T) {
	res := ChiSquaredTwoSample([]float64{1}, []float64{2, 3}, 10)
	if res.PValue != 1 {
		t.Fatalf("tiny samples should be inconclusive, p=%v", res.PValue)
	}
	// Identical constant samples: indistinguishable.
	res = ChiSquaredTwoSample([]float64{5, 5, 5}, []float64{5, 5, 5}, 10)
	if res.PValue != 1 {
		t.Fatalf("identical constants should give p=1, got %v", res.PValue)
	}
}

func TestChiSquaredPValueRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := simclock.NewRNG(seed)
		n := 10 + r.Intn(100)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(r.Intn(50))
			b[i] = float64(r.Intn(50) + r.Intn(3)*25)
		}
		res := ChiSquaredTwoSample(a, b, 8)
		return res.PValue >= 0 && res.PValue <= 1 && res.Stat >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// regularizedGammaP computes P(a, x) = γ(a,x)/Γ(a) for a > 0, x >= 0.
func regularizedGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}
