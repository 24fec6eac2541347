package core

import (
	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// AccuracyReport tallies prediction quality the way the paper's Fig. 11
// does: NL accuracy is the fraction of measured-NL requests predicted
// NL; HL accuracy is the fraction of measured-HL requests predicted HL.
type AccuracyReport struct {
	NLCount, NLCorrect int
	HLCount, HLCorrect int
	PredictedHL        int
	// Errors counts requests the device failed; they score nothing
	// (there is no latency to classify) and do not advance the clock.
	Errors int
	End    simclock.Time
}

// NLAccuracy returns the normal-latency prediction accuracy in [0,1].
func (r AccuracyReport) NLAccuracy() float64 {
	if r.NLCount == 0 {
		return 1
	}
	return float64(r.NLCorrect) / float64(r.NLCount)
}

// HLAccuracy returns the high-latency prediction accuracy in [0,1].
func (r AccuracyReport) HLAccuracy() float64 {
	if r.HLCount == 0 {
		return 1
	}
	return float64(r.HLCorrect) / float64(r.HLCount)
}

// Evaluate replays reqs against dev closed-loop at QD1, asking the
// predictor before each submission and scoring it against the measured
// latency class — the paper's fio-based accuracy methodology (§V-B).
func Evaluate(dev blockdev.Device, pr *Predictor, reqs []blockdev.Request, start simclock.Time) AccuracyReport {
	var rep AccuracyReport
	now := start
	// Asserted once, not per request through blockdev.SubmitChecked.
	fallible, _ := dev.(blockdev.FallibleDevice)
	for _, req := range reqs {
		pred := pr.Predict(req, now)
		var done simclock.Time
		var err error
		if fallible != nil {
			done, err = fallible.SubmitChecked(req, now)
		} else {
			done = dev.Submit(req, now)
		}
		if err != nil {
			rep.Errors++
			continue
		}
		pr.Observe(req, now, done)

		hl := pr.Classify(req.Op, done.Sub(now))
		if pred.HL {
			rep.PredictedHL++
		}
		if hl {
			rep.HLCount++
			if pred.HL {
				rep.HLCorrect++
			}
		} else {
			rep.NLCount++
			if !pred.HL {
				rep.NLCorrect++
			}
		}
		now = done
	}
	rep.End = now
	return rep
}
