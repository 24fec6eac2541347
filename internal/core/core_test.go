package core

import (
	"testing"
	"testing/quick"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// featuresLike fabricates an extraction result resembling SSD A without
// running the (slower) diagnosis, for unit tests.
func featuresLike() *extract.Features {
	return &extract.Features{
		VolumeBits:       nil,
		BufferBytes:      248 * 1024,
		BufferKind:       extract.BufferBack,
		FlushAlgorithms:  []extract.FlushAlgorithm{extract.FlushFull},
		ReadThreshold:    200 * time.Microsecond,
		WriteThreshold:   150 * time.Microsecond,
		FlushOverhead:    2 * time.Millisecond,
		GCOverhead:       40 * time.Millisecond,
		GCIntervalWrites: []float64{992, 1054, 1116, 1178, 1240, 1302, 1364, 1426, 1488},
	}
}

func TestIntervalDist(t *testing.T) {
	d := newIntervalDist(0.5)
	if cdfOf(&d, 5) != 0 || d.armAt != neverArms {
		t.Fatal("empty distribution misbehaves")
	}
	for _, iv := range []int{16, 18, 18, 20, 24} {
		d.Add(iv)
	}
	if d.total != 5 {
		t.Fatalf("total=%d", d.total)
	}
	if got := cdfOf(&d, 18); got != 0.6 {
		t.Fatalf("CDF(18)=%v", got)
	}
	if got := cdfOf(&d, 15); got != 0 {
		t.Fatalf("CDF(15)=%v", got)
	}
	if got := cdfOf(&d, 24); got != 1 {
		t.Fatalf("CDF(24)=%v", got)
	}
	if d.armAt != 18 {
		t.Fatalf("armAt=%d want 18 (first interval with CDF >= 0.5)", d.armAt)
	}
	d.Add(0) // ignored
	if d.total != 5 {
		t.Fatal("non-positive interval should be ignored")
	}
	d.Reset()
	if d.total != 0 || d.armAt != neverArms {
		t.Fatal("reset failed")
	}
}

func TestEWMA(t *testing.T) {
	e := newEWMA(0, 0.5)
	e.Update(100)
	if e.Value() != 100 {
		t.Fatalf("first update should set value, got %v", e.Value())
	}
	e.Update(200)
	if e.Value() != 150 {
		t.Fatalf("ewma=%v want 150", e.Value())
	}
	seeded := newEWMA(1000, 0.5)
	seeded.Update(0)
	if seeded.Value() != 500 {
		t.Fatalf("seeded ewma=%v want 500", seeded.Value())
	}
}

func TestPredictorConstruction(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	if !pr.Enabled() {
		t.Fatal("fresh predictor should be enabled")
	}
	if len(pr.vols) != 1 {
		t.Fatalf("vols=%d", len(pr.vols))
	}
	rt, wt := pr.Thresholds()
	if rt != 200*time.Microsecond || wt != 150*time.Microsecond {
		t.Fatalf("thresholds %v/%v", rt, wt)
	}
	if pr.vols[0].dist.total != 9 {
		t.Fatalf("seeded intervals=%d", pr.vols[0].dist.total)
	}
}

func TestVolumeSelector(t *testing.T) {
	f := featuresLike()
	f.VolumeBits = []int{17, 18}
	pr := NewPredictor(f, Params{})
	if len(pr.vols) != 4 {
		t.Fatalf("vols=%d", len(pr.vols))
	}
	if pr.volumeOf(0) != pr.vols[0] || pr.volumeOf(1<<18) != pr.vols[2] {
		t.Fatal("volume selector misroutes")
	}
	if pr.volumeOf(1<<17|1<<18) != pr.vols[3] {
		t.Fatal("combined bits misroute")
	}
}

func TestPredictFlushTriggeringWrite(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.bufCount = v.bufPages // next write overflows

	// Back buffer, media idle: background flush, write still fast.
	pred := pr.Predict(blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}, 1000)
	if pred.HL {
		t.Fatal("back-type flush trigger with idle media should stay NL")
	}
	// Media busy: backpressure, HL.
	v.ebt = simclock.Time(10 * time.Millisecond)
	pred = pr.Predict(blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}, 1000)
	if !pred.HL {
		t.Fatal("backpressured flush trigger should be HL")
	}
	if pred.EET < 9*time.Millisecond {
		t.Fatalf("EET %v should reflect the wait", pred.EET)
	}
}

func TestPredictForeFlush(t *testing.T) {
	f := featuresLike()
	f.BufferKind = extract.BufferFore
	f.BufferBytes = 128 * 1024
	pr := NewPredictor(f, Params{})
	v := pr.vols[0]
	v.bufCount = v.bufPages
	pred := pr.Predict(blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}, 0)
	if !pred.HL {
		t.Fatal("fore-type flush trigger must be HL")
	}
}

func TestPredictReadBehindDrain(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	pr.vols[0].ebt = simclock.Time(5 * time.Millisecond)
	pred := pr.Predict(blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}, 0)
	if !pred.HL {
		t.Fatal("read behind busy media should be HL")
	}
	pred = pr.Predict(blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}, simclock.Time(6*time.Millisecond))
	if pred.HL {
		t.Fatal("read after media idle should be NL")
	}
}

func TestPredictReadTrigger(t *testing.T) {
	f := featuresLike()
	f.BufferKind = extract.BufferFore
	f.FlushAlgorithms = []extract.FlushAlgorithm{extract.FlushFull, extract.FlushReadTrigger}
	pr := NewPredictor(f, Params{})
	pr.vols[0].bufCount = 1
	pred := pr.Predict(blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}, 0)
	if !pred.HL {
		t.Fatal("read with non-empty buffer on read-trigger device must be HL")
	}
	pr.vols[0].bufCount = 0
	if pr.Predict(blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}, 0).HL {
		t.Fatal("read with empty buffer should be NL")
	}
}

func TestObserveTracksBufferCounter(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	now := simclock.Time(0)
	for i := 0; i < v.bufPages; i++ {
		done := now.Add(20 * time.Microsecond)
		pr.Observe(req, now, done)
		now = done
	}
	if v.bufCount != v.bufPages {
		t.Fatalf("bufCount=%d want %d", v.bufCount, v.bufPages)
	}
	// One more write wraps the counter and records a flush.
	pr.Observe(req, now, now.Add(20*time.Microsecond))
	if v.bufCount != 1 {
		t.Fatalf("bufCount after flush=%d want 1", v.bufCount)
	}
	if v.flushesSinceGC != 1 {
		t.Fatalf("flushesSinceGC=%d want 1", v.flushesSinceGC)
	}
	if !v.ebt.After(now) {
		t.Fatal("background drain should set EBT into the future")
	}
}

func TestObserveGCConfirmation(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.flushesSinceGC = 17
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	pr.Observe(req, 0, simclock.Time(45*time.Millisecond)) // a GC-sized stall
	if v.flushesSinceGC != 0 {
		t.Fatalf("GC should reset interval counter, got %d", v.flushesSinceGC)
	}
	if cdfOf(&v.dist, 17) <= 0 {
		t.Fatal("GC interval should have been recorded")
	}
}

func TestObserveTwoStrikeResync(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.bufCount = 40
	read := blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}
	write := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}

	// First unexpected drain-read: suspicion only, counter untouched.
	now := simclock.Time(0)
	pr.Observe(read, now, now.Add(2*time.Millisecond))
	if v.bufCount != 40 {
		t.Fatalf("single strike must not resync, bufCount=%d", v.bufCount)
	}
	if !v.suspect {
		t.Fatal("first strike should record a suspicion")
	}

	// A couple of writes later, a second unexpected drain-read
	// confirms the misalignment and resyncs the counter phase.
	now = simclock.Time(100 * time.Millisecond)
	d1 := now.Add(20 * time.Microsecond)
	pr.Observe(write, now, d1)
	d2 := d1.Add(20 * time.Microsecond)
	pr.Observe(write, d1, d2)
	pr.Observe(read, d2, d2.Add(2*time.Millisecond))
	if v.bufCount >= 40 {
		t.Fatalf("second strike should resync counter, bufCount=%d", v.bufCount)
	}
	if v.flushesSinceGC != 1 {
		t.Fatalf("missed flush not accounted, flushesSinceGC=%d", v.flushesSinceGC)
	}
}

func TestObserveUnexpectedHLWriteIsNoise(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.bufCount = 40
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	pr.Observe(req, 0, simclock.Time(3*time.Millisecond)) // HL, no flush expected
	if v.bufCount != 41 {
		t.Fatalf("unexpected HL write must not disturb the counter, got %d", v.bufCount)
	}
	if v.ebt != simclock.Time(3*time.Millisecond) {
		t.Fatalf("unexpected HL write should not open an EBT window, ebt=%v", v.ebt)
	}
}

func TestObserveNLReadPullsEBTBack(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	v := pr.vols[0]
	v.ebt = simclock.Time(50 * time.Millisecond)
	req := blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}
	pr.Observe(req, simclock.Time(10*time.Millisecond), simclock.Time(10*time.Millisecond+100*1000))
	if v.ebt != simclock.Time(10*time.Millisecond) {
		t.Fatalf("stale EBT not recalibrated: %v", v.ebt)
	}
}

func TestDisableAfterPersistentMisprediction(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{DisableMinSamples: 50})
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	now := simclock.Time(0)
	// Feed unpredictable HL events (random 3ms stalls with a buffer
	// counter nowhere near full — the model cannot anticipate them).
	for i := 0; i < 300 && pr.Enabled(); i++ {
		done := now.Add(3 * time.Millisecond)
		pr.Observe(req, now, done)
		now = done.Add(time.Millisecond)
	}
	if pr.Enabled() {
		t.Fatal("predictor should disable itself under hopeless accuracy")
	}
	// Disabled predictor answers NL for everything.
	if pr.Predict(req, now).HL {
		t.Fatal("disabled predictor must predict NL")
	}
}

func TestPredictIsPure(t *testing.T) {
	f := func(lba uint32, sectors uint8, op bool) bool {
		pr := NewPredictor(featuresLike(), Params{})
		pr.vols[0].bufCount = 30
		pr.vols[0].ebt = 1500
		req := blockdev.Request{Op: blockdev.Write, LBA: int64(lba), Sectors: int(sectors%64) + 1}
		if op {
			req.Op = blockdev.Read
		}
		a := pr.Predict(req, 1000)
		b := pr.Predict(req, 1000)
		return a == b && pr.vols[0].bufCount == 30 && pr.vols[0].ebt == 1500
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndAccuracySSDA is the integration test for the paper's
// headline claim: diagnosis + model on a real (simulated) device yields
// high NL accuracy and useful HL accuracy.
func TestEndToEndAccuracySSDA(t *testing.T) {
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
	reqs := trace.Generate(trace.RWMixed, dev.CapacitySectors(), 32, 60000)
	rep := Evaluate(dev, pr, reqs, now)

	if rep.HLCount == 0 {
		t.Fatal("workload produced no HL requests; test is vacuous")
	}
	if nl := rep.NLAccuracy(); nl < 0.97 {
		t.Fatalf("NL accuracy %.4f below 0.97", nl)
	}
	if hl := rep.HLAccuracy(); hl < 0.5 {
		t.Fatalf("HL accuracy %.4f below 0.5", hl)
	}
	if !pr.Enabled() {
		t.Fatal("predictor should not have disabled itself on a covered device")
	}
}

// TestPredictionOverheadTiny guards the paper's claim that prediction
// costs nanoseconds, not microseconds.
func TestPredictionOverheadTiny(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	req := blockdev.Request{Op: blockdev.Read, LBA: 4096, Sectors: 8}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pr.Predict(req, simclock.Time(i))
		}
	})
	if perOp := res.NsPerOp(); perOp > 1000 {
		t.Fatalf("Predict costs %dns/op; should be well under 1us", perOp)
	}
}

func TestModelStateSnapshot(t *testing.T) {
	pr := NewPredictor(featuresLike(), Params{})
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	pr.Observe(req, 0, simclock.Time(20*time.Microsecond))
	st := pr.State(0)
	if st.BufCount != 1 {
		t.Fatalf("snapshot bufCount=%d", st.BufCount)
	}
	// Snapshots are copies: mutating the return must not touch the model.
	st.BufCount = 99
	if pr.State(0).BufCount != 1 {
		t.Fatal("snapshot aliased internal state")
	}
}

// Thresholds returns the NL/HL latency thresholds in use.
func (p *Predictor) Thresholds() (read, write time.Duration) {
	return p.readThr, p.writeThr
}
