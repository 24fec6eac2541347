package fleet

import (
	"fmt"

	"ssdcheck/internal/core"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/fsm"
	"ssdcheck/internal/simclock"
)

// ModelHealth is a fleet device's position in the model-health state
// machine — the predictor-quality counterpart of the resilience Health
// machine:
//
//	calibrated → drifting → fallback → rediagnosing → calibrated
//	     ↑__________|            ↑___________|  (re-diagnosis fail)
//	                             (accuracy recovers before fallback)
//
// A device drifts when the predictor's sliding HL accuracy falls under
// the configured floor (or the calibrator takes its own kill switch),
// falls back to conservative static predictions when the drift
// persists, and returns to calibrated only after an online
// re-diagnosis rebuilds its feature set and hot-swaps a fresh
// predictor.
type ModelHealth uint8

const (
	// ModelCalibrated devices serve live model predictions.
	ModelCalibrated ModelHealth = iota
	// ModelDrifting devices still predict from the live model, but
	// their sliding accuracy is under the floor; sustained drift falls
	// back, recovery re-calibrates.
	ModelDrifting
	// ModelFallback devices serve conservative static always-NL
	// predictions (the paper's harmless fallback) flagged in
	// Result.Fallback so schedulers stop trusting them.
	ModelFallback
	// ModelRediagnosing devices are mid re-diagnosis: probe stages run
	// interleaved with live traffic (still served in fallback mode) on
	// the owning shard, so no request is dropped or reordered.
	ModelRediagnosing
)

// Conservative reports whether a device in this state serves
// conservative static always-NL predictions instead of live model
// output: fallback, and rediagnosing (the rebuilt model is not sworn in
// until its probes validate). Schedulers should stop trusting the
// predictions of a conservative device; the daemon's health report and
// the fleet metrics count these states the same way.
func (h ModelHealth) Conservative() bool {
	return h == ModelFallback || h == ModelRediagnosing
}

var modelHealthNames = fsm.NewNames[ModelHealth]("modelhealth", "fleet: unknown model-health state",
	"calibrated", "drifting", "fallback", "rediagnosing")

// String names the state for logs and wire formats.
func (h ModelHealth) String() string { return modelHealthNames.String(h) }

// MarshalJSON renders the state as its string name.
func (h ModelHealth) MarshalJSON() ([]byte, error) { return modelHealthNames.Quote(h) }

// UnmarshalJSON parses the string names MarshalJSON emits; like
// Health's, it rejects null.
func (h *ModelHealth) UnmarshalJSON(b []byte) error { return modelHealthNames.ParseJSON(h, b) }

// ModelTransition is one edge taken in a device's model-health state
// machine, stamped with the same request sequence number as
// HealthTransition.
type ModelTransition = fsm.Transition[ModelHealth]

// ModelReport is the detailed per-device model view served by
// Manager.DeviceModel and the daemon's /v1/devices/{id}/model.
type ModelReport struct {
	ID          string      `json:"id"`
	ModelHealth ModelHealth `json:"model_health"`

	// PredictorEnabled mirrors the calibrator's own kill switch.
	PredictorEnabled bool `json:"predictor_enabled"`

	// HLAccuracy/NLAccuracy are the predictor's sliding-window
	// accuracies (1 on an empty window); HLWindow is the HL window
	// population the watchdog gates on.
	HLAccuracy float64 `json:"hl_accuracy"`
	NLAccuracy float64 `json:"nl_accuracy"`
	HLWindow   int     `json:"hl_window"`

	// DistResets counts calibrator GC-history resets — the rung of the
	// degradation ladder above harmless disable.
	DistResets int `json:"dist_resets"`

	// FallbackServed counts requests served conservatively since the
	// device last entered fallback; it triggers automatic re-diagnosis.
	FallbackServed int64 `json:"fallback_served"`

	// Rediags counts completed re-diagnosis attempts (passed or
	// failed).
	Rediags int `json:"rediags"`

	// Transitions is the full model-health transition log, oldest
	// first.
	Transitions []ModelTransition `json:"transitions"`
}

// DeviceModelLog pairs a device with its model-transition log;
// Manager.ModelLog returns one per device in configuration order so
// the fleet's model history marshals deterministically.
type DeviceModelLog struct {
	ID          string            `json:"id"`
	ModelHealth ModelHealth       `json:"model_health"`
	Transitions []ModelTransition `json:"transitions"`
}

// modelEvent names the recorder event for a model-health edge. The
// interesting edges get the names the runbooks grep for; the rest fall
// back to a generic "model_" prefix.
func modelEvent(from, to ModelHealth) string {
	switch to {
	case ModelDrifting:
		return "model_drift_detected"
	case ModelFallback:
		if from == ModelRediagnosing {
			return "rediag_failed"
		}
		return "model_fallback"
	case ModelRediagnosing:
		return "rediag_started"
	default: // ModelCalibrated
		if from == ModelRediagnosing {
			return "rediag_finished"
		}
		return "model_recovered"
	}
}

// modelTransitionLocked moves the device to a new model-health state
// and logs the edge. It runs on the owning shard goroutine with md.mu
// held.
func (md *managedDevice) modelTransitionLocked(to ModelHealth, cause string) {
	edge := ModelTransition{Seq: md.seq, From: md.modelHealth, To: to, Cause: cause}
	if fsm.Move(&md.modelHealth, to, &md.modelLog, edge) {
		md.rec.Event(modelEvent(edge.From, to), md.id)
		md.stats.vals[statModelTransitions]++
	}
}

// enterFallbackLocked switches the device to conservative predictions
// and restarts the fallback-served counter that paces re-diagnosis.
func (md *managedDevice) enterFallbackLocked(cause string) {
	md.modelTransitionLocked(ModelFallback, cause)
	md.fallbackServed = 0
}

// noteModelLocked is the drift watchdog: it feeds one served
// completion's drift snapshot into the model-health state machine.
// It runs after every served request on the owning shard with md.mu
// held. Both arguments are read through pointers: copying the report
// by value costs a store-forwarding stall on every request.
func (md *managedDevice) noteModelLocked(d *core.DriftReport, mp *ModelPolicy) {
	if mp.Disabled {
		return
	}
	switch md.modelHealth {
	case ModelCalibrated:
		switch {
		case !d.Enabled:
			md.driftAge = 0
			md.modelTransitionLocked(ModelDrifting, "calibrator disabled")
		case d.HLSeen >= mp.MinSamples && d.HLAccuracy() < mp.FloorHL:
			md.driftAge = 0
			md.modelTransitionLocked(ModelDrifting, "hl accuracy under floor")
		}
	case ModelDrifting:
		md.driftAge++
		switch {
		case !d.Enabled:
			md.enterFallbackLocked("calibrator disabled")
		case d.HLSeen >= mp.MinSamples && d.HLAccuracy() >= mp.RecoverAboveHL:
			md.modelTransitionLocked(ModelCalibrated, "accuracy recovered")
		case md.driftAge >= mp.FallbackAfter:
			// The drift budget is spent. Fall back only when the window
			// still sits under the floor — a genuinely sustained
			// collapse. A window that climbed back over the floor (but
			// not yet to the recovery bound) is a transient excursion:
			// end the episode without condemning the model, so chronic
			// mid-accuracy devices don't flap into fallback.
			if d.HLSeen >= mp.MinSamples && d.HLAccuracy() < mp.FloorHL {
				md.enterFallbackLocked("sustained drift")
			} else {
				md.driftAge = 0
				md.modelTransitionLocked(ModelCalibrated, "drift subsided")
			}
		}
	case ModelFallback:
		if mp.RediagAfter >= 0 && md.rediags < mp.MaxRediags &&
			md.fallbackServed >= int64(mp.RediagAfter) {
			md.modelTransitionLocked(ModelRediagnosing, "fallback budget spent")
		}
	}
}

// rediagRun is an in-flight online re-diagnosis: a budgeted subset of
// the extract pipeline split into stages, one stage per served request,
// so probe traffic interleaves with live traffic on the device's
// virtual clock without dropping or reordering anything.
type rediagRun struct {
	sess  *extract.Session
	opts  extract.Opts
	stage int
	start simclock.Time // device virtual clock at rediag start
	feats extract.Features
}

// rediagStages is how many served requests one re-diagnosis spans.
const rediagStages = 4

// rediagStep advances the device's re-diagnosis by one stage. It runs
// on the owning shard goroutine, outside md.mu, after the live request
// completes. Volume topology and SLC geometry are carried from the
// baseline diagnosis — the feature-shift faults this machinery answers
// change buffer and timing behavior, not the address layout — so the
// budgeted probes only re-measure thresholds, GC cadence, and the
// write buffer.
func (md *managedDevice) rediagStep(cfg *Config) {
	r := md.rediag
	if r == nil {
		opts := cfg.Diagnosis.WithDefaults(md.dev.CapacitySectors())
		opts.GCIntervals = cfg.Model.RediagBudget
		seed := md.spec.Seed ^ 0x4ed1a6 ^ (uint64(md.rediags+1) * 0x9e3779b97f4a7c15)
		r = &rediagRun{
			sess:  extract.NewSession(md.dev, md.now, seed),
			opts:  opts,
			start: md.now,
		}
		r.feats.VolumeBits = append([]int(nil), md.feats.VolumeBits...)
		r.feats.SLCCachePages = md.feats.SLCCachePages
		r.feats.SLCFoldOverhead = md.feats.SLCFoldOverhead
		md.rediag = r
	}
	// Live requests served since the last stage advanced the device
	// clock; the probes resume after them, never before.
	r.sess.Now = md.now
	switch r.stage {
	case 0:
		r.feats.ReadThreshold, r.feats.WriteThreshold = extract.CalibrateThresholds(r.sess)
	case 1:
		// Fixed-pattern GC cadence only: the topology is carried over,
		// so no per-bit Flip scan runs.
		_, r.feats.GCIntervalWrites, r.feats.GCOverhead = extract.FixedGCCadence(r.sess, r.opts)
	case 2:
		buf := extract.AnalyzeWriteBuffer(r.sess, r.opts, r.feats.VolumeBits,
			r.feats.ReadThreshold, r.feats.WriteThreshold)
		r.feats.BufferBytes = buf.Bytes
		r.feats.BufferKind = buf.Kind
		r.feats.FlushAlgorithms = buf.FlushAlgorithms
		r.feats.FlushOverhead = buf.FlushOverhead
	}
	md.now = r.sess.Now
	r.stage++
	if r.stage >= rediagStages {
		md.finishRediag(r)
	}
}

// finishRediag validates the rebuilt feature set and either hot-swaps
// a fresh predictor (calibrated) or returns to fallback. The swap
// happens between requests on the owning shard, so in-flight traffic
// is never dropped or reordered; readers only ever see the cached
// state published under md.mu.
func (md *managedDevice) finishRediag(r *rediagRun) {
	md.rediag = nil
	f := r.feats
	err := r.sess.Err()
	if err == nil && f.BufferKind == extract.BufferUnknown && f.BufferBytes == 0 {
		err = fmt.Errorf("extract: write buffer not identifiable")
	}
	if err == nil {
		err = f.Validate()
	}
	if err == nil {
		md.pr.Reset(&f)
		md.feats = &f
	}
	md.mu.Lock()
	md.rediagLat.Observe(md.now.Sub(r.start))
	md.rediags++
	md.stats.vals[statRediags]++
	if err == nil {
		md.driftAge = 0
		md.fallbackServed = 0
		md.modelTransitionLocked(ModelCalibrated, "re-diagnosis pass")
	} else {
		md.enterFallbackLocked("re-diagnosis fail")
	}
	md.publishLocked()
	md.mu.Unlock()
}

// forceRediag runs a full re-diagnosis synchronously on the owning
// shard goroutine — the operator-initiated path behind
// Manager.Rediagnose. It bypasses the fallback pacing and the rediag
// cap (an explicit request is its own budget) but not quarantine: a
// device that is out of service cannot be probed.
func (md *managedDevice) forceRediag(cfg *Config) error {
	md.mu.Lock()
	if md.health == Quarantined || md.health == Recovering {
		md.mu.Unlock()
		return fmt.Errorf("device %q: %w", md.id, ErrDeviceQuarantined)
	}
	md.modelTransitionLocked(ModelRediagnosing, "operator request")
	md.mu.Unlock()

	for i := 0; i < rediagStages+1; i++ {
		md.rediagStep(cfg)
		md.mu.Lock()
		done := md.rediag == nil
		ok := md.modelHealth == ModelCalibrated
		md.mu.Unlock()
		if done {
			if !ok {
				return fmt.Errorf("device %q: re-diagnosis failed", md.id)
			}
			return nil
		}
	}
	return fmt.Errorf("device %q: re-diagnosis did not converge", md.id)
}
