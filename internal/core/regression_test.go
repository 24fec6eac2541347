package core

import (
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/simclock"
)

// These tests pin down behaviors that were each, at some point, the
// root cause of a large accuracy regression. They intentionally test
// narrow mechanisms rather than end-to-end accuracy, so a reintroduced
// bug fails with a precise message instead of an accuracy drop.

// Regression: the NL-read EBT pullback must not kill a drain-sized
// window (the model may legitimately run a write or two early; wiping
// the window guaranteed missing the drain that was about to start).
func TestRegressionPullbackSparesDrainWindows(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	read := blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}

	v.ebt = simclock.Time(1500 * time.Microsecond) // drain-sized window
	pr.Observe(read, 0, simclock.Time(100*time.Microsecond))
	if !v.ebt.After(0) || v.ebt != simclock.Time(1500*time.Microsecond) {
		t.Fatalf("drain-sized EBT window was wiped by an NL read: ebt=%v", v.ebt)
	}
}

// Regression: a GC-overshoot window (tens of ms) must be pulled back by
// an NL read — but only down to the flush horizon, not to zero, because
// the flush part of the prediction may still be real.
func TestRegressionPullbackKeepsFlushHorizon(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	read := blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}

	v.lastFlushAt = simclock.Time(0)
	v.ebt = simclock.Time(45 * time.Millisecond) // armed GC window
	submit := simclock.Time(200 * time.Microsecond)
	pr.Observe(read, submit, submit.Add(100*time.Microsecond))
	if v.ebt >= simclock.Time(45*time.Millisecond) {
		t.Fatal("stale GC window not pulled back")
	}
	// Pulled to lastFlushAt+flushOverhead = 2ms, not to the submit time.
	if v.ebt != simclock.Time(0).Add(v.flushOverhead.Value()) {
		t.Fatalf("pullback should land on the flush horizon, got %v", v.ebt)
	}
}

// Regression: on a back-type device, a flush-triggering write that
// completes NL proves the media was idle; a stale armed EBT must not
// ratchet upward across flushes (on read-free workloads nothing else
// can correct it).
func TestRegressionNLFlushTriggerResetsStaleEBT(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.ebt = simclock.Time(100 * time.Millisecond) // badly stale
	v.bufCount = v.bufPages                       // next write wraps

	write := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	submit := simclock.Time(10 * time.Millisecond)
	done := submit.Add(20 * time.Microsecond) // NL ack
	pr.Observe(write, submit, done)

	// EBT restarts from this flush, not from the stale 100ms value.
	if v.ebt > done.Add(v.flushOverhead.Value()+v.gcOverhead.Value()) {
		t.Fatalf("EBT ratcheted: %v", v.ebt)
	}
	if !v.ebt.After(done) {
		t.Fatal("flush should still open a fresh drain window")
	}
}

// Regression: a GC-sized stall on a write with no modeled flush is the
// only phase-repair evidence a pure-write workload gets; it must resync
// the buffer counter (SSD H's folds were 0%-predicted without this).
func TestRegressionGCWriteStallResyncsCounter(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.bufCount = 30 // misaligned mid-range

	write := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	pr.Observe(write, 0, simclock.Time(50*time.Millisecond)) // GC-sized stall
	if v.bufCount != 1 {
		t.Fatalf("counter not resynced to the triggering write: %d", v.bufCount)
	}
	if v.flushesSinceGC != 0 {
		t.Fatalf("GC interval counter not closed: %d", v.flushesSinceGC)
	}
}

// Regression: ordinary-sized unexpected HL writes (secondary features)
// must NOT resync or open EBT windows — doing so poisoned the counter
// far more often than it helped.
func TestRegressionSecondaryWriteStallIsNoise(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.bufCount = 30

	write := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	done := simclock.Time(3 * time.Millisecond) // secondary-sized stall
	pr.Observe(write, 0, done)
	if v.bufCount != 31 {
		t.Fatalf("secondary stall disturbed the counter: %d", v.bufCount)
	}
	if v.ebt.After(done) {
		t.Fatalf("secondary stall opened an EBT window: %v", v.ebt)
	}
}

// Regression: the two-strike rule — one unexpected drain-read is a
// suspicion, not a resync; suspicions expire after a few buffer periods.
func TestRegressionSuspicionExpiry(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.bufCount = 40

	read := blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}
	write := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}

	pr.Observe(read, 0, simclock.Time(2*time.Millisecond)) // strike 1
	if !v.suspect {
		t.Fatal("first strike should register")
	}
	// Age the suspicion past the horizon with plain writes.
	now := simclock.Time(10 * time.Millisecond)
	for i := 0; i < 4*v.bufPages; i++ {
		done := now.Add(20 * time.Microsecond)
		pr.Observe(write, now, done)
		now = done
	}
	before := v.bufCount
	pr.Observe(read, now, now.Add(2*time.Millisecond)) // late second strike
	// Expired: treated as a fresh first strike, no resync.
	if v.bufCount < before-1 && v.bufCount <= 4 {
		t.Fatalf("expired suspicion still resynced: bufCount %d -> %d", before, v.bufCount)
	}
	if !v.suspect {
		t.Fatal("late strike should re-arm the suspicion")
	}
}

// Regression: PredictReadInOrder must flag a read behind enough pending
// writes to wrap the buffer, even when the media is currently idle —
// the inverted issued-now prediction doubled flush counts on
// read-trigger devices.
func TestRegressionInOrderPredictionSeesPendingWrites(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.bufCount = 10
	read := blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}

	// Issued now: NL (media idle, buffer not full).
	if pr.Predict(read, 0).HL {
		t.Fatal("read issued now should be NL")
	}
	// In order behind enough writes to trigger the flush: HL.
	if !pr.PredictReadInOrder(read, 0, v.bufPages).HL {
		t.Fatal("read behind a buffer-wrapping write burst should be HL")
	}
	// Behind a few writes that do not wrap: still NL.
	if pr.PredictReadInOrder(read, 0, 5).HL {
		t.Fatal("read behind a few writes should stay NL")
	}
}

// Regression: predictor ablation switches must actually disconnect their
// components.
func TestRegressionAblationSwitches(t *testing.T) {
	f := featuresLike()
	f.VolumeBits = []int{17}

	pr := NewPredictor(f, Params{IgnoreVolumes: true})
	if len(pr.vols) != 1 {
		t.Fatalf("IgnoreVolumes kept %d volume models", len(pr.vols))
	}

	pr = NewPredictor(f, Params{NoGCModel: true, GCQuantile: 0.1})
	pr.vols[0].flushesSinceGC = 1000
	if pr.vols[0].predictGCOnFlush() {
		t.Fatal("NoGCModel still arms the GC detector")
	}

	pr = NewPredictor(f, Params{NoCalibration: true})
	v := pr.vols[0]
	seeded := v.dist.total
	write := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	pr.Observe(write, 0, simclock.Time(50*time.Millisecond))
	if v.dist.total != seeded {
		t.Fatal("NoCalibration still updates the GC history")
	}
}

// Regression: the accuracy ladder resets the distribution once before
// disabling, and records the reset.
func TestRegressionAccuracyLadderResetsFirst(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{DisableMinSamples: 40})
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	now := simclock.Time(0)
	sawReset := false
	for i := 0; i < 200 && pr.Enabled(); i++ {
		done := now.Add(3 * time.Millisecond) // unpredictable HL
		pr.Observe(req, now, done)
		if pr.distResets > 0 {
			sawReset = true
		}
		now = done.Add(time.Millisecond)
	}
	if !sawReset {
		t.Fatal("ladder never reached the distribution-reset rung")
	}
	if pr.Enabled() {
		t.Fatal("ladder never reached the disable rung")
	}
}

var _ = extract.BufferBack // keep the import available for featuresLike edits
