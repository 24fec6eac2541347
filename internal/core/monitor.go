package core

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// Classify applies the latency monitor's NL/HL thresholds to a measured
// latency.
func (p *Predictor) Classify(op blockdev.Op, lat time.Duration) bool {
	if op == blockdev.Read {
		return lat > p.readThr
	}
	return lat > p.writeThr
}

// gcConfirm decides whether an observed stall is long enough to count as
// garbage collection rather than a buffer drain.
func (p *Predictor) gcConfirm(v *volumeModel, lat time.Duration) bool {
	cut := 3 * v.flushOverhead.Value()
	if cut < 6*time.Millisecond {
		cut = 6 * time.Millisecond
	}
	return lat >= cut
}

// Observe is the latency monitor plus calibrator (Fig. 8 steps a-d): it
// must be called for every completed request, in completion order. It
// updates the buffer counter, detects flush events, confirms GC
// occurrences into the interval distribution, re-estimates overheads,
// repairs model discrepancies, and enforces the accuracy-driven
// fallbacks (history reset, then harmless disable).
func (p *Predictor) Observe(req blockdev.Request, submit, done simclock.Time) {
	lat := done.Sub(submit)
	hl := p.Classify(req.Op, lat)

	// Score the prediction this request would have received, before
	// any state mutation.
	pred := p.Predict(req, submit)
	if hl {
		p.hlSeen++
		if pred.HL {
			p.hlHit++
		}
	} else {
		p.nlSeen++
		if !pred.HL {
			p.nlHit++
		}
	}

	if !p.enabled || req.Op == blockdev.Trim {
		p.calibrateAccuracy()
		return
	}

	v := p.volumeOf(req.LBA)
	pages := pagesOf(req)

	switch req.Op {
	case blockdev.Write:
		p.observeWrite(v, pages, lat, hl, submit, done)
	case blockdev.Read:
		p.observeRead(v, lat, hl, submit, done)
	}
	p.calibrateAccuracy()
}

// recentOwnFlush reports whether the model itself registered a flush
// close enough to explain a drain observed ending at done — in which
// case an unexpected stall is boundary jitter, not counter misalignment.
// A drain triggered at the model's own flush event ends within roughly
// one drain length of it; anything later is somebody else's flush.
func (v *volumeModel) recentOwnFlush(done simclock.Time) bool {
	window := v.flushOverhead.Value()*5/4 + 500*time.Microsecond
	return v.lastFlushAt > 0 && done.Sub(v.lastFlushAt) < window
}

func (p *Predictor) observeWrite(v *volumeModel, pages int, lat time.Duration, hl bool, submit, done simclock.Time) {
	v.bufCount += pages
	flushed := 0
	for v.bufCount > v.bufPages {
		v.bufCount -= v.bufPages
		flushed++
	}
	if flushed > 0 {
		v.flushesSinceGC += flushed
		v.lastFlushAt = submit
	}
	v.noteWrite(done, pages)
	v.writesSeen += int64(pages)

	switch {
	case hl && p.gcConfirm(v, lat):
		// GC (or SLC fold) observed: close the interval, feed the
		// distribution, recalibrate the GC overhead.
		p.event("gc_confirmed")
		if !p.params.NoCalibration {
			v.dist.Add(v.flushesSinceGC)
			v.gcOverhead.Update(lat)
			if flushed == 0 {
				// A GC-sized stall on a write is backpressure behind
				// a flush the counter did not see — unambiguous
				// resync evidence (unlike ordinary-sized stalls,
				// which could be unmodeled one-offs). The device's
				// buffer now holds just this write. This is the only
				// phase-repair path a pure-write workload has.
				v.bufCount = pages
				v.lastFlushAt = submit
			}
		}
		v.flushesSinceGC = 0
		v.ebt = done
	case hl && flushed > 0:
		// The expected flush stalled this write: fore-type drain wait
		// or back-type backpressure.
		if v.fore {
			if !p.params.NoCalibration {
				v.flushOverhead.Update(lat - p.params.NLWriteBase)
			}
			v.ebt = done
		} else {
			// Backpressure: the drain this write just triggered is
			// still ahead.
			v.ebt = done.Add(v.flushOverhead.Value())
		}
	case hl:
		// HL write without a modeled flush. A genuine backpressure
		// stall implies the counter just wrapped, which the model
		// would have seen, so an unexpected HL write is almost always
		// an unmodeled one-off (wear-leveling move, SLC folding).
		// Treat it as noise: opening an EBT window or resyncing here
		// would poison the counter far more often than it would fix
		// it. Counter misalignment repairs itself through unexpected
		// HL *reads*, which are reliable drain evidence.
		v.ebt = done
	case flushed > 0 && !v.fore:
		// Back-type flush drains in the background from now on. A
		// flush-triggering write stalls exactly when the media is
		// busy, so this write completing NL proves the media was idle
		// — any leftover EBT (a GC prediction that did not come true)
		// is stale and must not ratchet. This is the write-side
		// counterpart of the NL-read pullback, and the only one a
		// read-free workload gets.
		if v.ebt.After(done) {
			v.ebt = done
		}
		busy := v.flushOverhead.Value()
		if v.predictGCOnFlush() {
			busy += v.gcOverhead.Value()
		}
		v.ebt = done.Add(busy)
	case flushed > 0 && v.fore:
		// Fore-type flush completed within the ack.
		v.ebt = done
	}
}

func (p *Predictor) observeRead(v *volumeModel, lat time.Duration, hl bool, submit, done simclock.Time) {
	if v.readTrigger && v.bufCount > 0 {
		// The read itself triggered a drain of everything buffered.
		v.bufCount = 0
		v.flushesSinceGC++
		v.lastFlushAt = submit
		switch {
		case hl && p.gcConfirm(v, lat):
			p.event("gc_confirmed")
			if !p.params.NoCalibration {
				v.dist.Add(v.flushesSinceGC)
				v.gcOverhead.Update(lat)
			}
			v.flushesSinceGC = 0
		case hl && !p.params.NoCalibration:
			v.flushOverhead.Update(lat - p.params.NLReadBase)
		}
		v.ebt = done
		return
	}

	switch {
	case hl && p.gcConfirm(v, lat):
		p.event("gc_confirmed")
		if !p.params.NoCalibration {
			v.dist.Add(v.flushesSinceGC)
			v.gcOverhead.Update(lat)
		}
		v.flushesSinceGC = 0
		v.ebt = done
	case hl:
		// A drain stalled this read; keep the flush-overhead estimate
		// fresh from the observed stall.
		if !p.params.NoCalibration {
			v.flushOverhead.Update(lat - p.params.NLReadBase)
		}
		if !p.params.NoCalibration && !v.ebt.After(submit) && !v.recentOwnFlush(done) {
			// Unexpected HL read with no recent modeled flush. One
			// such event may be an unmodeled one-off stall; a second
			// within a few buffer periods confirms the counter is out
			// of phase — resync it onto the device (paper §III-C2)
			// and account the missed flush.
			if v.strikeMisalignment() {
				p.event("buffer_resync")
				v.resyncBuffer(done.Add(-v.flushOverhead.Value()*11/10), submit)
				v.flushesSinceGC++
				v.lastFlushAt = submit
			}
		}
		v.ebt = done
	default:
		if v.ebt.After(submit) {
			// Media predicted busy but the read was NL. If the EBT
			// window is drain-sized the flush may simply be a write
			// or two away (the model can run marginally early);
			// killing the window would guarantee missing the drain.
			// A window far beyond a drain is a GC prediction that did
			// not come true — but the flush part of it may still be
			// real, so pull back to the flush-only horizon rather
			// than to zero.
			if v.ebt.Sub(submit) > 2*v.flushOverhead.Value()+time.Millisecond {
				fallback := v.lastFlushAt.Add(v.flushOverhead.Value())
				if fallback.After(submit) {
					v.ebt = fallback
				} else {
					v.ebt = submit
				}
			}
		}
	}
}

// HLAccuracy returns the monitor's sliding HL prediction accuracy.
func (p *Predictor) HLAccuracy() float64 {
	if p.hlSeen == 0 {
		return 1
	}
	return float64(p.hlHit) / float64(p.hlSeen)
}

// calibrateAccuracy applies the paper's degradation ladder: when HL
// accuracy sinks, first discard the (possibly stale) GC interval
// history; if accuracy stays low, harmlessly disable prediction so an
// uncovered device sees no mispredictions at all.
func (p *Predictor) calibrateAccuracy() {
	if p.params.NoCalibration || p.hlSeen < p.params.DisableMinSamples {
		return
	}
	acc := p.HLAccuracy()
	switch {
	case acc < p.params.DisableBelowHL && p.distResets > 0:
		if p.enabled {
			p.event("calib_disabled")
		}
		p.enabled = false
	case acc < p.params.ResetDistBelowHL:
		p.event("calib_dist_reset")
		for _, v := range p.vols {
			v.dist.Reset()
			v.flushesSinceGC = 0
		}
		p.distResets++
		p.hlSeen, p.hlHit = 0, 0
	default:
		// Keep the window sliding so old history cannot pin the
		// accuracy estimate.
		p.hlSeen /= 2
		p.hlHit /= 2
		p.nlSeen /= 2
		p.nlHit /= 2
	}
}
