package core

import (
	"math/rand"
	"testing"

	"ssdcheck/internal/extract"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// refDist is the interval distribution as it stood before the GC
// detector took its threshold form: a map of counts walked in full on
// every consultation. It survives only here, as the oracle the
// threshold form is checked against.
type refDist struct {
	counts map[int]int
	total  int
}

func newRefDist() *refDist { return &refDist{counts: make(map[int]int)} }

func (d *refDist) Add(iv int) {
	if iv <= 0 {
		return
	}
	d.counts[iv]++
	d.total++
}

func (d *refDist) Reset() {
	d.counts = make(map[int]int)
	d.total = 0
}

// refCDF is the old intervalDist.CDF, verbatim.
func refCDF(d *refDist, iv int) float64 {
	if d.total == 0 {
		return 0
	}
	n := 0
	for v, c := range d.counts {
		if v <= iv {
			n += c
		}
	}
	return float64(n) / float64(d.total)
}

// refPredictGC is the old volumeModel.predictGCOnFlush with the CDF
// value already in hand (the disableGC switch is covered by
// TestRegressionAblationSwitches).
func refPredictGC(d *refDist, cdf, q float64) bool {
	if d.total < 3 {
		return false
	}
	return cdf >= q
}

// cdfOf reads the empirical CDF off the sorted history.
func cdfOf(d *intervalDist, iv int) float64 {
	if d.total == 0 {
		return 0
	}
	n := 0
	for _, e := range d.ivs {
		if e.iv <= iv {
			n += e.n
		}
	}
	return float64(n) / float64(d.total)
}

// TestGCDetectorMatchesReference drives the threshold-form detector and
// the map-walking reference through the same seeded Add/Reset sequences
// and requires the same arm/no-arm decision for every interval length,
// at every quantile, including short (< 3) and just-reset histories.
func TestGCDetectorMatchesReference(t *testing.T) {
	quantiles := []float64{-0.5, 0.05, 0.2, 0.35, 0.5, 0.9, 1.0, 1.5}
	// Interval ranges: narrow ranges force heavy ties, the widest is the
	// span the presets' histories can reach.
	spans := []int{4, 40, 600, 5000}
	lengths := []int{0, 1, 2, 3, 7, 64, 500, 2000}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, span := range spans {
			for _, length := range lengths {
				ref := newRefDist()
				vols := make([]volumeModel, len(quantiles))
				for i, q := range quantiles {
					vols[i].dist = newIntervalDist(q)
				}
				// A pool of favourite values makes ties heavy even on
				// the wide spans.
				pool := make([]int, 12)
				for i := range pool {
					pool[i] = 1 + rng.Intn(span)
				}
				hi := 0
				check := func(what string) {
					t.Helper()
					for iv := 0; iv <= hi+2; iv++ {
						cdf := refCDF(ref, iv)
						for i := range vols {
							vols[i].flushesSinceGC = iv - 1
							want := refPredictGC(ref, cdf, quantiles[i])
							if got := vols[i].predictGCOnFlush(); got != want {
								t.Fatalf("seed %d span %d len %d %s: q=%v iv=%d total=%d: got %v, reference %v",
									seed, span, length, what, quantiles[i], iv, ref.total, got, want)
							}
						}
					}
				}
				check("fresh")
				// Full sweeps are O(span × keys); spread a bounded
				// number of them over the sequence, and always sweep
				// around a Reset and at the end.
				every := length/16 + 1
				for n := 0; n < length; n++ {
					r := rng.Intn(100)
					if r == 0 {
						ref.Reset()
						for i := range vols {
							vols[i].dist.Reset()
						}
						hi = 0
						check("after reset")
						continue
					}
					iv := pool[rng.Intn(len(pool))]
					if r >= 70 {
						iv = rng.Intn(span + 1) // 0 is ignored by both
					}
					if iv > hi {
						hi = iv
					}
					ref.Add(iv)
					for i := range vols {
						vols[i].dist.Add(iv)
					}
					if ref.total <= 8 || n%every == 0 {
						check("mid-sequence")
					}
				}
				check("final")
				for i := range vols {
					if vols[i].dist.total != ref.total {
						t.Fatalf("total=%d, reference %d", vols[i].dist.total, ref.total)
					}
					for iv := 0; iv <= hi+2; iv += 1 + hi/64 {
						if got, want := cdfOf(&vols[i].dist, iv), refCDF(ref, iv); got != want {
							t.Fatalf("CDF(%d)=%v, reference %v", iv, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPinnedPresetAccuracy pins every prediction decision on presets
// A–G: full diagnosis, seed 42, 200 000 RWMixed requests each through
// Evaluate. The expected tallies were generated on the commit that still
// had the map-walking GC detector (PR 11, 08ffbc0) and must never move:
// an optimisation of the predictor that changes one HL/NL call fails
// here, not just in the benchmark's sim_digest.
func TestPinnedPresetAccuracy(t *testing.T) {
	want := map[string]AccuracyReport{
		"A": {NLCount: 198265, NLCorrect: 196057, HLCount: 1735, HLCorrect: 1589, PredictedHL: 3797},
		"B": {NLCount: 198243, NLCorrect: 196975, HLCount: 1757, HLCorrect: 1575, PredictedHL: 2843},
		"C": {NLCount: 198180, NLCorrect: 194781, HLCount: 1820, HLCorrect: 1474, PredictedHL: 4873},
		"D": {NLCount: 196298, NLCorrect: 193959, HLCount: 3702, HLCorrect: 2767, PredictedHL: 5106},
		"E": {NLCount: 195964, NLCorrect: 192727, HLCount: 4036, HLCorrect: 1814, PredictedHL: 5051},
		"F": {NLCount: 150101, NLCorrect: 150101, HLCount: 49899, HLCorrect: 49748, PredictedHL: 49748},
		"G": {NLCount: 150125, NLCorrect: 150125, HLCount: 49875, HLCorrect: 49748, PredictedHL: 49748},
	}
	const seed = 42
	for _, name := range ssd.PresetNames {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg, err := ssd.Preset(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			dev := ssd.MustNew(cfg)
			now := trace.Precondition(dev, seed, 1.2, 0)
			feats, now, err := extract.Run(dev, now, extract.Opts{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pr := NewPredictor(feats, Params{})
			reqs := trace.Generate(trace.RWMixed, dev.CapacitySectors(), seed, 200_000)
			got := Evaluate(dev, pr, reqs, now)
			got.End = 0 // the tallies are the pin; End follows from them
			if w := want[name]; got != w {
				t.Errorf("preset %s: got %+v, pinned %+v", name, got, w)
			}
		})
	}
}
