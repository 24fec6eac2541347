package core

import (
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// hopeless feeds the predictor unpredictable HL stalls until the
// calibrator's ladder bottoms out and takes the kill switch.
func hopeless(t *testing.T, pr *Predictor) {
	t.Helper()
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	now := simclock.Time(0)
	for i := 0; i < 5000 && pr.Enabled(); i++ {
		done := now.Add(3 * time.Millisecond)
		pr.Observe(req, now, done)
		now = done.Add(time.Millisecond)
	}
	if pr.Enabled() {
		t.Fatal("predictor failed to disable under hopeless accuracy")
	}
}

func TestDriftReportAccuracy(t *testing.T) {
	var r DriftReport
	if r.HLAccuracy() != 1 || r.NLAccuracy() != 1 {
		t.Fatal("empty windows must report accuracy 1")
	}
	r = DriftReport{HLSeen: 10, HLHit: 4, NLSeen: 100, NLHit: 99}
	if got := r.HLAccuracy(); got != 0.4 {
		t.Fatalf("HLAccuracy=%v want 0.4", got)
	}
	if got := r.NLAccuracy(); got != 0.99 {
		t.Fatalf("NLAccuracy=%v want 0.99", got)
	}
}

func TestDriftTracksMonitorWindows(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{DisableMinSamples: 50})
	d := pr.Drift()
	if !d.Enabled || d.HLSeen != 0 || d.NLSeen != 0 || d.DistResets != 0 {
		t.Fatalf("fresh drift report %+v", d)
	}
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	// One NL write the model predicts correctly.
	pr.Observe(req, 0, simclock.Time(20*time.Microsecond))
	d = pr.Drift()
	if d.NLSeen != 1 || d.NLHit != 1 {
		t.Fatalf("after NL hit: %+v", d)
	}
	// One surprise HL stall the model cannot have predicted.
	pr.Observe(req, simclock.Time(time.Millisecond), simclock.Time(5*time.Millisecond))
	d = pr.Drift()
	if d.HLSeen != 1 || d.HLHit != 0 {
		t.Fatalf("after HL miss: %+v", d)
	}

	hopeless(t, pr)
	d = pr.Drift()
	if d.Enabled {
		t.Fatal("drift report should mirror the disable latch")
	}
	if d.DistResets == 0 {
		t.Fatal("the ladder resets the interval dist before disabling")
	}
}

func TestConservativePredictMatchesDisabledPath(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{DisableMinSamples: 50})
	read := blockdev.Request{Op: blockdev.Read, LBA: 4096, Sectors: 8}
	write := blockdev.Request{Op: blockdev.Write, LBA: 4096, Sectors: 8}

	wantR, wantW := pr.ConservativePredict(read), pr.ConservativePredict(write)
	if wantR.HL || wantW.HL {
		t.Fatal("conservative predictions must be NL")
	}
	if wantR.EET != pr.params.NLReadBase || wantW.EET != pr.params.NLWriteBase {
		t.Fatalf("conservative EETs %v/%v", wantR.EET, wantW.EET)
	}

	hopeless(t, pr)
	if got := pr.Predict(read, 0); got != wantR {
		t.Fatalf("disabled Predict %+v != ConservativePredict %+v", got, wantR)
	}
	if got := pr.Predict(write, 0); got != wantW {
		t.Fatalf("disabled Predict %+v != ConservativePredict %+v", got, wantW)
	}
}

// TestResetRevivesDisabledPredictor is the satellite fix for one-way
// disablement, on a real (simulated) SSD A: diagnose, disable the
// predictor under hopeless accuracy, Reset from the same features, and
// verify the revived predictor is enabled and accurate again.
func TestResetRevivesDisabledPredictor(t *testing.T) {
	dev := ssd.MustNew(ssd.PresetA(31))
	now := trace.Precondition(dev, 31, 1.3, 0)
	feats, now, err := extract.Run(dev, now, extract.Opts{
		Seed: 31, MinBit: 15, MaxBit: 19, AllocWritesPerBit: 2200, GCIntervals: 24,
		Thinktimes: []time.Duration{500 * time.Microsecond, time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPredictor(feats, Params{})

	hopeless(t, pr)
	if d := pr.Drift(); d.Enabled {
		t.Fatal("drift report should show the predictor disabled")
	}

	pr.Reset(feats)
	if !pr.Enabled() {
		t.Fatal("Reset must re-arm a disabled predictor")
	}
	if d := pr.Drift(); d.HLSeen != 0 || d.NLSeen != 0 || d.DistResets != 0 {
		t.Fatalf("Reset must clear the accuracy windows, got %+v", d)
	}

	reqs := trace.Generate(trace.RWMixed, dev.CapacitySectors(), 32, 60000)
	rep := Evaluate(dev, pr, reqs, now)
	if rep.HLCount == 0 {
		t.Fatal("workload produced no HL requests; test is vacuous")
	}
	if nl := rep.NLAccuracy(); nl < 0.97 {
		t.Fatalf("post-reset NL accuracy %.4f below 0.97", nl)
	}
	if hl := rep.HLAccuracy(); hl < 0.5 {
		t.Fatalf("post-reset HL accuracy %.4f below 0.5", hl)
	}
	if !pr.Enabled() {
		t.Fatal("revived predictor disabled itself again on a healthy device")
	}
}

// TestResetPreservesRecorder checks the hot-swap keeps the obs
// attachment so post-swap events keep flowing under the device's id.
func TestResetPreservesRecorder(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	rec := pr.rec
	subject := "dev-x"
	pr.SetRecorder(rec, subject)
	pr.Reset(featuresLike())
	if pr.subject != subject {
		t.Fatalf("Reset dropped recorder subject: %q", pr.subject)
	}
}

// Drift returns the monitor's current accuracy window. Allocation-free.
func (p *Predictor) Drift() DriftReport {
	var r DriftReport
	p.DriftInto(&r)
	return r
}
