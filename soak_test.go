package ssdcheck_test

import (
	"testing"
	"time"

	"ssdcheck"
	"ssdcheck/internal/trace"
)

// TestSoakLongHaul runs the full pipeline over a long replay — hundreds
// of buffer periods and GC cycles — and checks the model neither drifts
// nor disables: the calibrator's whole job is surviving exactly this.
func TestSoakLongHaul(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is long")
	}
	for _, preset := range []string{"A", "D", "G"} {
		preset := preset
		t.Run("SSD_"+preset, func(t *testing.T) {
			cfg, err := ssdcheck.Preset(preset, 1201)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := ssdcheck.NewSSD(cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := ssdcheck.Precondition(dev, 1201, 1.3, 0)
			feats, now, err := ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{
				Seed: 1201, MinBit: 15, MaxBit: 19, AllocWritesPerBit: 2200, GCIntervals: 24,
				Thinktimes: []time.Duration{500 * time.Microsecond, time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			pr := ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})

			// Three different workload phases back to back: the model
			// must stay calibrated through regime changes.
			var totalHL, hitHL, totalNL, hitNL int
			for _, spec := range []ssdcheck.Workload{trace.Web, ssdcheck.Exch, ssdcheck.RWMixed} {
				reqs := ssdcheck.GenerateWorkload(spec, dev.CapacitySectors(), 1300, 100000)
				rep := ssdcheck.EvaluateAccuracy(dev, pr, reqs, now)
				now = rep.End
				totalHL += rep.HLCount
				hitHL += rep.HLCorrect
				totalNL += rep.NLCount
				hitNL += rep.NLCorrect
			}
			if !pr.Enabled() {
				t.Fatal("predictor disabled itself during the soak")
			}
			if totalHL == 0 {
				t.Fatal("soak produced no HL requests")
			}
			nl := float64(hitNL) / float64(totalNL)
			hl := float64(hitHL) / float64(totalHL)
			if nl < 0.95 {
				t.Fatalf("NL accuracy decayed to %.3f over the soak", nl)
			}
			if hl < 0.4 {
				t.Fatalf("HL accuracy decayed to %.3f over the soak", hl)
			}
			t.Logf("soak on %s: NL %.2f%% HL %.2f%% over %d requests", preset, 100*nl, 100*hl, totalNL+totalHL)
		})
	}
}
