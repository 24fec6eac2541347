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
// Evaluate. The tallies move only on purpose: they were regenerated
// when the GC-volume scan became sequential, which changes the device
// state diagnosis hands over. An optimisation of the predictor that
// changes one HL/NL call fails here, not just in the benchmark's
// sim_digest.
func TestPinnedPresetAccuracy(t *testing.T) {
	want := map[string]AccuracyReport{
		"A": {NLCount: 198279, NLCorrect: 195234, HLCount: 1721, HLCorrect: 1598, PredictedHL: 4643},
		"B": {NLCount: 198248, NLCorrect: 195228, HLCount: 1752, HLCorrect: 1577, PredictedHL: 4597},
		"C": {NLCount: 198202, NLCorrect: 192276, HLCount: 1798, HLCorrect: 1491, PredictedHL: 7417},
		"D": {NLCount: 196260, NLCorrect: 194084, HLCount: 3740, HLCorrect: 2754, PredictedHL: 4930},
		"E": {NLCount: 196009, NLCorrect: 192939, HLCount: 3991, HLCorrect: 1887, PredictedHL: 4957},
		"F": {NLCount: 150090, NLCorrect: 150090, HLCount: 49910, HLCorrect: 49748, PredictedHL: 49748},
		"G": {NLCount: 150107, NLCorrect: 150107, HLCount: 49893, HLCorrect: 49748, PredictedHL: 49748},
	}
	const seed = 42
	for _, name := range ssd.PresetNames {
		name := name
		t.Run(name, func(t *testing.T) {
			got := presetAccuracy(t, name, seed)
			got.End = 0 // the tallies are the pin; End follows from them
			if w := want[name]; got != w {
				t.Errorf("preset %s: got %+v, pinned %+v", name, got, w)
			}
		})
	}
}

// presetAccuracy is TestPinnedPresetAccuracy's recipe: the preset at
// seed, preconditioned, diagnosed at full strength, then scored on
// 200,000 RW-mixed requests.
func presetAccuracy(t *testing.T, name string, seed uint64) AccuracyReport {
	t.Helper()
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
	return Evaluate(dev, pr, reqs, now)
}

// TestPresetAccuracyOverSeeds runs the pinned recipe at seeds 1–20 and
// holds each preset's mean HL and NL accuracy to within half a point of
// the means the fixed-size GC-volume scan gave. One seed's tallies also
// follow the device state that diagnosis hands over (2,000 extra writes
// after diagnosis move B's seed-42 NL accuracy 99.36 → 98.92 %), so the
// model's quality is judged over seeds.
func TestPresetAccuracyOverSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("140 full diagnoses")
	}
	if raceEnabled {
		t.Skip("skipped under -race: sequential simulation, nothing to race, and minutes of detector overhead")
	}
	// 20-seed means in percent, HL then NL, before the sequential scan.
	floor := map[string][2]float64{
		"A": {91.22, 98.395},
		"B": {89.73, 98.500},
		"C": {82.75, 98.475},
		"D": {73.83, 98.654},
		"E": {44.76, 98.286},
		"F": {99.69, 100.000},
		"G": {99.74, 100.000},
	}
	const seeds = 20
	for _, name := range ssd.PresetNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var hl, nl float64
			for seed := uint64(1); seed <= seeds; seed++ {
				r := presetAccuracy(t, name, seed)
				hl += 100 * r.HLAccuracy() / seeds
				nl += 100 * r.NLAccuracy() / seeds
			}
			f := floor[name]
			t.Logf("preset %s: mean HL %.2f %% (was %.2f), NL %.3f %% (was %.3f)", name, hl, f[0], nl, f[1])
			if hl < f[0]-0.5 || nl < f[1]-0.5 {
				t.Errorf("preset %s: mean HL %.2f %%, NL %.3f %%; floor %.2f / %.3f", name, hl, nl, f[0]-0.5, f[1]-0.5)
			}
		})
	}
}
