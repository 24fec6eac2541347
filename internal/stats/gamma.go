package stats

import "math"

// Regularized incomplete gamma functions, after the classic
// series/continued-fraction split (Numerical Recipes §6.2). They back the
// chi-squared survival function used by the GC-volume diagnosis.

const (
	gammaEps     = 3e-14
	gammaMaxIter = 500
)

// regularizedGammaQ computes Q(a, x) = 1 - P(a, x).
func regularizedGammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a,x) by its series representation; converges
// quickly for x < a+1.
func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a,x) by modified Lentz's method;
// converges quickly for x >= a+1.
func gammaContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquaredSurvival returns P(X >= stat) for a chi-squared variable with
// df degrees of freedom — the p-value of a chi-squared test statistic.
func ChiSquaredSurvival(stat float64, df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if stat <= 0 {
		return 1
	}
	return regularizedGammaQ(float64(df)/2, stat/2)
}
