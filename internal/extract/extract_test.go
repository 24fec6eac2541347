package extract

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"strings"

	"ssdcheck/internal/ftl"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// quickOpts shrinks probe sizes so the full pipeline stays fast in tests.
func quickOpts(seed uint64) Opts {
	return Opts{
		Seed:              seed,
		MinBit:            15,
		MaxBit:            19,
		AllocWritesPerBit: 2200,
		GCIntervals:       24,
		Thinktimes:        []time.Duration{500 * time.Microsecond, 1 * time.Millisecond},
	}
}

// diagnose preconditions the device and runs the full diagnosis.
func diagnose(t *testing.T, cfg ssd.Config, o Opts) *Features {
	t.Helper()
	dev := ssd.MustNew(cfg)
	now := trace.Precondition(dev, o.Seed, 1.3, 0)
	f, _, err := Run(dev, now, o)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return f
}

func TestThresholdsSane(t *testing.T) {
	dev := ssd.MustNew(ssd.PresetA(1))
	now := trace.Precondition(dev, 1, 1.2, 0)
	s := NewSession(dev, now, 1)
	readThr, writeThr := CalibrateThresholds(s)
	// NL reads span ~80us (4KB) to ~200us (64KB), NL writes ~20us,
	// flush stalls are >=1ms: the thresholds must separate them.
	if readThr < 100*time.Microsecond || readThr > 600*time.Microsecond {
		t.Fatalf("read threshold %v unusable", readThr)
	}
	if writeThr < 50*time.Microsecond || writeThr > 400*time.Microsecond {
		t.Fatalf("write threshold %v unusable", writeThr)
	}
}

func TestAllocScanSingleVolume(t *testing.T) {
	f := diagnose(t, ssd.PresetA(2), quickOpts(2))
	if len(f.VolumeBits) != 0 {
		t.Fatalf("SSD A should have no volume bits, got %v", f.VolumeBits)
	}
	for _, p := range f.AllocScan {
		if p.Ratio < 0.7 {
			t.Errorf("bit %d ratio %.2f dips on a single-volume device", p.Bit, p.Ratio)
		}
	}
}

func TestAllocScanTwoVolumes(t *testing.T) {
	f := diagnose(t, ssd.PresetD(3), quickOpts(3))
	if len(f.VolumeBits) != 1 || f.VolumeBits[0] != 17 {
		t.Fatalf("SSD D volume bits = %v, want [17]", f.VolumeBits)
	}
}

func TestAllocScanFourVolumes(t *testing.T) {
	f := diagnose(t, ssd.PresetE(4), quickOpts(4))
	if len(f.VolumeBits) != 2 || f.VolumeBits[0] != 17 || f.VolumeBits[1] != 18 {
		t.Fatalf("SSD E volume bits = %v, want [17 18]", f.VolumeBits)
	}
	if f.NumVolumes() != 4 {
		t.Fatalf("SSD E volumes = %d", f.NumVolumes())
	}
}

func TestBufferAnalysisBack(t *testing.T) {
	f := diagnose(t, ssd.PresetA(5), quickOpts(5))
	if f.BufferKind != BufferBack {
		t.Fatalf("SSD A buffer kind = %v, want back", f.BufferKind)
	}
	if f.BufferBytes != 248*1024 {
		t.Fatalf("SSD A buffer = %d bytes, want 248KB", f.BufferBytes)
	}
	if len(f.FlushAlgorithms) != 1 || f.FlushAlgorithms[0] != FlushFull {
		t.Fatalf("SSD A flush algorithms = %v", f.FlushAlgorithms)
	}
	if f.FlushOverhead < 500*time.Microsecond {
		t.Fatalf("flush overhead %v too small to be a drain", f.FlushOverhead)
	}
}

func TestBufferAnalysisFore(t *testing.T) {
	f := diagnose(t, ssd.PresetF(6), quickOpts(6))
	if f.BufferKind != BufferFore {
		t.Fatalf("SSD F buffer kind = %v, want fore", f.BufferKind)
	}
	if f.BufferBytes != 128*1024 {
		t.Fatalf("SSD F buffer = %d bytes, want 128KB", f.BufferBytes)
	}
	if len(f.FlushAlgorithms) != 2 || f.FlushAlgorithms[1] != FlushReadTrigger {
		t.Fatalf("SSD F flush algorithms = %v", f.FlushAlgorithms)
	}
}

func TestGCScanSeedsModel(t *testing.T) {
	f := diagnose(t, ssd.PresetA(7), quickOpts(7))
	if len(f.GCIntervalWrites) < 8 {
		t.Fatalf("too few GC intervals: %d", len(f.GCIntervalWrites))
	}
	if f.GCOverhead < 5*time.Millisecond {
		t.Fatalf("GC overhead %v implausibly small", f.GCOverhead)
	}
	// Self-invalidation intervals should be roughly constant around
	// reclaim*pagesPerBlock = 8*128 = 1024 writes.
	for _, iv := range f.GCIntervalWrites {
		if iv < 512 || iv > 2048 {
			t.Fatalf("Fixed GC interval %v outside plausible band", iv)
		}
	}
}

func TestGCScanPValues(t *testing.T) {
	f := diagnose(t, ssd.PresetD(8), quickOpts(8))
	// Under H0 the p-value is uniform on [0,1], so non-volume bits can
	// legitimately show smallish values; what matters is that they stay
	// above the detection alpha while the true volume bit crashes
	// through it.
	for _, p := range f.GCScan {
		if p.Bit == 17 {
			if p.PValue > 0.001 {
				t.Errorf("bit 17 p-value %.4f should be ~0 on SSD D", p.PValue)
			}
		} else if p.PValue < 0.001 {
			t.Errorf("bit %d p-value %.6f below detection alpha on SSD D", p.Bit, p.PValue)
		}
	}
}

func TestTableRowFormatting(t *testing.T) {
	f := &Features{VolumeBits: []int{17, 18}, BufferBytes: 128 * 1024, BufferKind: BufferBack,
		FlushAlgorithms: []FlushAlgorithm{FlushFull}}
	row := f.TableRow("SSD E")
	want := "SSD E     4 (17,18)   128KB  back    full"
	if row != want {
		t.Fatalf("row %q want %q", row, want)
	}
}

func TestUnionBits(t *testing.T) {
	got := unionBits([]int{18, 17}, []int{17, 19})
	if len(got) != 3 || got[0] != 17 || got[1] != 18 || got[2] != 19 {
		t.Fatalf("unionBits = %v", got)
	}
	if out := unionBits(nil, nil); len(out) != 0 {
		t.Fatalf("empty union = %v", out)
	}
}

func TestPrototypeOthersGracefullyInconclusive(t *testing.T) {
	// The ablated prototype charges no flush/GC time: the probes must
	// come back empty-handed rather than hallucinate features.
	cfg := ssd.ProtoOthers(9)
	dev := ssd.MustNew(cfg)
	now := trace.Precondition(dev, 9, 1.2, 0)
	f, _, err := Run(dev, now, quickOpts(9))
	if err == nil {
		t.Fatalf("expected 'outside model coverage' error, got features %+v", f)
	}
	if len(f.VolumeBits) != 0 {
		t.Fatalf("ablated device produced volume bits %v", f.VolumeBits)
	}
}

// TestTableIAllPresets is the headline integration test: full diagnosis
// on every preset must reproduce the paper's Table I.
func TestTableIAllPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I diagnosis is long")
	}
	type want struct {
		bits   []int
		bufKB  int
		kind   BufferKind
		nalgos int
	}
	wants := map[string]want{
		"A": {nil, 248, BufferBack, 1},
		"B": {nil, 248, BufferBack, 1},
		"C": {nil, 256, BufferBack, 1},
		"D": {[]int{17}, 128, BufferBack, 1},
		"E": {[]int{17, 18}, 128, BufferBack, 1},
		"F": {nil, 128, BufferFore, 2},
		"G": {nil, 128, BufferFore, 2},
	}
	for i, name := range ssd.PresetNames {
		cfg, err := ssd.Preset(name, uint64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		f := diagnose(t, cfg, quickOpts(uint64(50+i)))
		w := wants[name]
		if len(f.VolumeBits) != len(w.bits) {
			t.Errorf("SSD %s: volume bits %v, want %v", name, f.VolumeBits, w.bits)
			continue
		}
		for j := range w.bits {
			if f.VolumeBits[j] != w.bits[j] {
				t.Errorf("SSD %s: volume bits %v, want %v", name, f.VolumeBits, w.bits)
			}
		}
		if f.BufferBytes != w.bufKB*1024 {
			t.Errorf("SSD %s: buffer %dKB, want %dKB", name, f.BufferBytes/1024, w.bufKB)
		}
		if f.BufferKind != w.kind {
			t.Errorf("SSD %s: kind %v, want %v", name, f.BufferKind, w.kind)
		}
		if len(f.FlushAlgorithms) != w.nalgos {
			t.Errorf("SSD %s: flush algorithms %v", name, f.FlushAlgorithms)
		}
		_ = ftl.BufferBack // keep import if wants shrink
	}
}

func TestSLCCacheDetection(t *testing.T) {
	// Preset H carries a 2 MB SLC cache (8 blocks x 64 usable pages =
	// 512 pages); the probe must find it.
	f := diagnose(t, ssd.PresetH(12), quickOpts(12))
	if f.SLCCachePages == 0 {
		t.Fatal("SLC cache not detected on SSD H")
	}
	if f.SLCCachePages < 256 || f.SLCCachePages > 1024 {
		t.Fatalf("SLC cache size %d pages far from ground truth 512", f.SLCCachePages)
	}
	if f.SLCFoldOverhead < 5*time.Millisecond {
		t.Fatalf("fold overhead %v implausibly small", f.SLCFoldOverhead)
	}
}

func TestNoSLCFalsePositive(t *testing.T) {
	// Ordinary devices must not hallucinate an SLC region out of
	// backpressure or GC stalls.
	for _, name := range []string{"A", "F"} {
		cfg, _ := ssd.Preset(name, 13)
		f := diagnose(t, cfg, quickOpts(13))
		if f.SLCCachePages != 0 {
			t.Errorf("SSD %s: phantom SLC cache of %d pages", name, f.SLCCachePages)
		}
	}
}

// randomConfigs is how many randomConfig cases the property tests run.
const randomConfigs = 6

// randomConfig draws case c of the randomized configurations inside the
// model's coverage, with the seed it was drawn from.
func randomConfig(c int) (ssd.Config, uint64) {
	bufferChoices := []int{96, 128, 160, 192, 248, 256}
	volumeChoices := [][]int{nil, {17}, {16}, {17, 18}, {16, 18}}

	seed := uint64(1000 + c*77)
	rng := simclock.NewRNG(seed)
	cfg := ssd.PresetA(seed)
	cfg.Name = fmt.Sprintf("random-%d", c)
	cfg.BufferBytes = bufferChoices[rng.Intn(len(bufferChoices))] * 1024
	cfg.VolumeBits = volumeChoices[rng.Intn(len(volumeChoices))]
	if rng.Uint64()&1 == 1 {
		cfg.BufferType = ftl.BufferFore
		cfg.ReadTriggerFlush = true
	}
	cfg.Timing.ProgramPage = time.Duration(900+rng.Intn(5)*50) * time.Microsecond
	cfg.SecondaryRate = 0.0005
	return cfg, seed
}

// TestDiagnosisRecoversRandomConfigs is the pipeline's property test:
// for randomized device configurations inside the model's coverage —
// arbitrary buffer sizes, buffer types, volume-bit layouts, NAND
// speeds — the diagnosis must recover the ground truth. This is far
// stronger than the seven fixed presets: it checks the probes measure
// the mechanism, not the preset constants.
func TestDiagnosisRecoversRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized diagnosis sweep is long")
	}
	for c := 0; c < randomConfigs; c++ {
		cfg, seed := randomConfig(c)
		f := diagnose(t, cfg, quickOpts(seed+1))

		if f.BufferBytes != cfg.BufferBytes {
			t.Errorf("case %d (%+v bits, %v): buffer %dKB want %dKB",
				c, cfg.VolumeBits, cfg.BufferType, f.BufferBytes/1024, cfg.BufferBytes/1024)
		}
		wantFore := cfg.BufferType == ftl.BufferFore
		if (f.BufferKind == BufferFore) != wantFore {
			t.Errorf("case %d: buffer kind %v, fore=%v", c, f.BufferKind, wantFore)
		}
		if len(f.VolumeBits) != len(cfg.VolumeBits) {
			t.Errorf("case %d: volume bits %v want %v", c, f.VolumeBits, cfg.VolumeBits)
			continue
		}
		for i := range cfg.VolumeBits {
			if f.VolumeBits[i] != cfg.VolumeBits[i] {
				t.Errorf("case %d: volume bits %v want %v", c, f.VolumeBits, cfg.VolumeBits)
			}
		}
	}
}

func TestFeaturesPersistRoundTrip(t *testing.T) {
	f := &Features{
		VolumeBits:       []int{17, 18},
		BufferBytes:      128 * 1024,
		BufferKind:       BufferFore,
		FlushAlgorithms:  []FlushAlgorithm{FlushFull, FlushReadTrigger},
		ReadThreshold:    200 * time.Microsecond,
		WriteThreshold:   150 * time.Microsecond,
		FlushOverhead:    1200 * time.Microsecond,
		GCOverhead:       38 * time.Millisecond,
		GCIntervalWrites: []float64{1000, 1100},
		SLCCachePages:    512,
		SLCFoldOverhead:  90 * time.Millisecond,
	}
	var buf bytes.Buffer
	if err := f.Save(&buf, "SSD E"); err != nil {
		t.Fatal(err)
	}
	got, device, err := LoadFeatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if device != "SSD E" {
		t.Fatalf("device label %q", device)
	}
	if got.BufferBytes != f.BufferBytes || got.BufferKind != f.BufferKind ||
		len(got.VolumeBits) != 2 || got.VolumeBits[1] != 18 ||
		got.SLCCachePages != 512 || got.GCOverhead != f.GCOverhead {
		t.Fatalf("round trip mangled features: %+v", got)
	}
}

func TestLoadFeaturesRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 99, "features": {}}`,
		`{"version": 1}`,
		`{"version": 1, "features": {"ReadThreshold": 0}}`,
		`{"version": 1, "features": {"ReadThreshold": 1000, "WriteThreshold": 1000, "VolumeBits": [18, 17]}}`,
	}
	for _, c := range cases {
		if _, _, err := LoadFeatures(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestLoadedFeaturesDriveAPredictor(t *testing.T) {
	// A saved diagnosis must be as good as a fresh one: diagnose,
	// save, load, and verify the loaded copy is identical.
	f := diagnose(t, ssd.PresetA(61), quickOpts(61))
	var buf bytes.Buffer
	if err := f.Save(&buf, "SSD A"); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadFeatures(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BufferBytes != f.BufferBytes || got.BufferKind != f.BufferKind ||
		got.FlushOverhead != f.FlushOverhead || len(got.GCIntervalWrites) != len(f.GCIntervalWrites) {
		t.Fatal("loaded features differ from the diagnosis")
	}
}

func TestNVMClassDeviceOutsideCoverage(t *testing.T) {
	// An NVM-medium SSD (preset X) is so fast that buffer drains and
	// GC hide below the latency thresholds: the diagnosis must decline
	// rather than fabricate a model, and the device must genuinely
	// have nothing worth predicting.
	cfg := ssd.PresetX(41)
	dev := ssd.MustNew(cfg)
	now := trace.Precondition(dev, 41, 1.3, 0)
	_, end, err := Run(dev, now, quickOpts(41))
	if err == nil {
		t.Fatal("NVM-class device should be reported outside model coverage")
	}

	// Sanity: the device's own tail is unremarkable — the decline is
	// correct, not a probe failure.
	g := trace.NewGenerator(trace.RWMixed, dev.CapacitySectors(), 42)
	var worst time.Duration
	tcur := end
	for i := 0; i < 20000; i++ {
		req := g.Next()
		done := dev.Submit(req, tcur)
		if lat := done.Sub(tcur); lat > worst {
			worst = lat
		}
		tcur = done
	}
	if worst > 2*time.Millisecond {
		t.Fatalf("device has real HL events (%v) yet was declined", worst)
	}
}
