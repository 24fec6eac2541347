package core

import (
	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/extract"
)

// DriftReport is a read-only snapshot of the latency monitor's sliding
// accuracy windows — the raw material for drift watchdogs layered on
// top of the predictor (internal/fleet's model-health machine). It is a
// plain value: taking one allocates nothing and mutates nothing, so
// callers may sample it after every request.
type DriftReport struct {
	// HLSeen/HLHit are the sliding window of observed-HL requests and
	// how many of them were predicted HL.
	HLSeen, HLHit int
	// NLSeen/NLHit are the corresponding NL window.
	NLSeen, NLHit int
	// DistResets counts how many times the calibrator discarded the GC
	// interval history — the first rung of the paper's degradation
	// ladder, and one rung above harmless disable.
	DistResets int
	// Enabled mirrors Predictor.Enabled: false once the calibrator has
	// taken the accuracy-driven kill switch.
	Enabled bool
}

// HLAccuracy returns the window's HL prediction accuracy (1 when the
// window is empty, matching the predictor's convention). The accuracy
// methods take pointer receivers: a drift watchdog calls them on every
// request, on a report it has just stored, and a by-value receiver
// would copy the whole report with the same stall DriftInto avoids.
func (r *DriftReport) HLAccuracy() float64 {
	if r.HLSeen == 0 {
		return 1
	}
	return float64(r.HLHit) / float64(r.HLSeen)
}

// NLAccuracy returns the window's NL prediction accuracy.
func (r *DriftReport) NLAccuracy() float64 {
	if r.NLSeen == 0 {
		return 1
	}
	return float64(r.NLHit) / float64(r.NLSeen)
}

// DriftInto stores the monitor's current accuracy window in *r — the
// form for a per-request caller. A report returned by value is built in
// a temporary and copied out, and the copy reloads its fresh 8-byte
// stores as 16-byte loads: a store-forwarding stall on every request.
func (p *Predictor) DriftInto(r *DriftReport) {
	r.HLSeen, r.HLHit = p.hlSeen, p.hlHit
	r.NLSeen, r.NLHit = p.nlSeen, p.nlHit
	r.DistResets = p.distResets
	r.Enabled = p.enabled
}

// Reset rebuilds the predictor in place from a (re-)extracted feature
// set, re-arming it if the calibrator had disabled it. This is the
// model hot-swap path: the device handle, recorder attachment and
// tuning parameters survive; every piece of model state — volume
// models, thresholds, accuracy windows, the disable latch — is
// reconstructed exactly as NewPredictor would build it.
//
// Like every other Predictor method, Reset must run on the goroutine
// that owns the predictor.
func (p *Predictor) Reset(f *extract.Features) {
	np := NewPredictor(f, p.params)
	np.rec, np.subject = p.rec, p.subject
	*p = *np
}

// ConservativePredict is the static always-NL fallback prediction: the
// exact answer Predict gives once the calibrator has disabled the
// framework (the paper's harmless fallback), exposed so callers can
// serve conservative predictions from a model they no longer trust
// without waiting for the predictor's own kill switch. It reads no
// model state and allocates nothing.
func (p *Predictor) ConservativePredict(req blockdev.Request) Prediction {
	base := p.params.NLWriteBase
	if req.Op == blockdev.Read {
		base = p.params.NLReadBase
	}
	return Prediction{HL: false, EET: base}
}
