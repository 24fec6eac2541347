package extract

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/ftl"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/stats"
	"ssdcheck/internal/trace"
)

// scanGCVolumesFixed is the fixed-size GC-volume scan that the
// sequential ScanGCVolumes replaced, kept as its reference: every bit
// collects Opts.GCIntervals intervals per pattern and is decided at
// that size, with one doubled retry when p lands in [alpha, 50 alpha).
func scanGCVolumesFixed(s *Session, o Opts) GCScanResult {
	res := GCScanResult{}
	base, fixed, overhead := FixedGCCadence(s, o, allBits(o)...)
	res.FixedIntervals = fixed
	res.Overhead = overhead
	if len(fixed) < 4 {
		for bit := o.MinBit; bit <= o.MaxBit; bit++ {
			res.Points = append(res.Points, BitPValue{Bit: bit, PValue: 1})
		}
		return res
	}
	for bit := o.MinBit; bit <= o.MaxBit; bit++ {
		n := o.GCIntervals
		ref, _ := s.collectGCIntervals(o, n, base, -1)
		flip, _ := s.collectGCIntervals(o, n, base, bit)
		test := stats.ChiSquaredTwoSample(ref, flip, 8)
		volume := test.PValue < o.ChiAlpha || dispersionRatio(ref, flip) > 3
		if !volume && test.PValue < 50*o.ChiAlpha {
			n = 2 * o.GCIntervals
			ref2, _ := s.collectGCIntervals(o, n, base, -1)
			flip2, _ := s.collectGCIntervals(o, n, base, bit)
			test = stats.ChiSquaredTwoSample(ref2, flip2, 8)
			volume = test.PValue < o.ChiAlpha || dispersionRatio(ref2, flip2) > 3
		}
		res.Points = append(res.Points, BitPValue{Bit: bit, PValue: test.PValue, Intervals: n})
		if volume {
			res.VolumeBits = append(res.VolumeBits, bit)
		}
	}
	return res
}

// countingDevice counts the requests a diagnosis submits.
type countingDevice struct {
	blockdev.Device
	n int64
}

func (d *countingDevice) Submit(req blockdev.Request, at simclock.Time) simclock.Time {
	d.n++
	return d.Device.Submit(req, at)
}

// gcSweepUnit is one diagnosed device of the oracle sweep.
type gcSweepUnit struct {
	name, group string
	cfg         ssd.Config
	precond     uint64  // precondition seed
	fill        float64 // precondition factor
	o           Opts
}

// gcSweepRun is one diagnosis of a unit with a given GC-volume scan.
type gcSweepRun struct {
	f      *Features
	gcBits []int         // the GC scan's own verdict, before the union
	gcReqs int64         // requests the GC scan submitted
	gcVirt time.Duration // virtual time the GC scan took
	reqs   int64         // requests the whole diagnosis submitted
	virt   time.Duration // virtual time the whole diagnosis took
}

func (u gcSweepUnit) diagnose(t *testing.T, scan func(*Session, Opts) GCScanResult) gcSweepRun {
	t.Helper()
	dev := ssd.MustNew(u.cfg)
	now := trace.Precondition(dev, u.precond, u.fill, 0)
	cd := &countingDevice{Device: dev}
	var r gcSweepRun
	counted := func(s *Session, o Opts) GCScanResult {
		n0, t0 := cd.n, s.Now
		gc := scan(s, o)
		r.gcReqs, r.gcVirt, r.gcBits = cd.n-n0, s.Now.Sub(t0), gc.VolumeBits
		return gc
	}
	f, end, err := run(cd, now, u.o, counted)
	if err != nil {
		t.Errorf("%s: %v", u.name, err)
	}
	r.f, r.reqs, r.virt = f, cd.n, end.Sub(now)
	return r
}

// matchesTruth reports whether f is the unit's Table I row.
func matchesTruth(f *Features, cfg ssd.Config) bool {
	if f == nil || !slices.Equal(f.VolumeBits, cfg.VolumeBits) || f.BufferBytes != cfg.BufferBytes {
		return false
	}
	if (f.BufferKind == BufferFore) != (cfg.BufferType == ftl.BufferFore) {
		return false
	}
	return slices.Contains(f.FlushAlgorithms, FlushReadTrigger) == cfg.ReadTriggerFlush
}

// bitErrors counts the GC scan's false and missed volume bits.
func bitErrors(got, truth []int) (falseBits, missed int) {
	for _, b := range got {
		if !slices.Contains(truth, b) {
			falseBits++
		}
	}
	for _, b := range truth {
		if !slices.Contains(got, b) {
			missed++
		}
	}
	return falseBits, missed
}

// TestSequentialGCScanMatchesOracle diagnoses presets A–G at seeds 1–20
// with the benchmark's recipe (precondition seed s, probe seed
// s^0xd1a6, full-strength options) and the random configurations of
// TestDiagnosisRecoversRandomConfigs, once with the sequential GC-volume
// scan and once with the fixed-size reference. The sequential scan must
// yield the same model features, add no false volume bit, miss no more
// true bits, misjudge no more SLC caches, and spend at most half the
// reference's GC-scan requests. Run with -v for the per-preset budget
// table and the correct-features-against-requests curve.
func TestSequentialGCScanMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep diagnoses 146 devices twice")
	}
	var units []gcSweepUnit
	for _, name := range ssd.PresetNames {
		for seed := uint64(1); seed <= 20; seed++ {
			cfg, err := ssd.Preset(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, gcSweepUnit{
				name: fmt.Sprintf("%s-%d", name, seed), group: name, cfg: cfg,
				precond: seed, fill: 1.2, o: Opts{Seed: seed ^ 0xd1a6},
			})
		}
	}
	for c := 0; c < randomConfigs; c++ {
		cfg, seed := randomConfig(c)
		units = append(units, gcSweepUnit{
			name: cfg.Name, group: "random", cfg: cfg,
			precond: seed + 1, fill: 1.3, o: quickOpts(seed + 1),
		})
	}

	seq := make([]gcSweepRun, len(units))
	ref := make([]gcSweepRun, len(units))
	t.Run("devices", func(t *testing.T) {
		for i, u := range units {
			t.Run(u.name, func(t *testing.T) {
				t.Parallel()
				seq[i] = u.diagnose(t, ScanGCVolumes)
				ref[i] = u.diagnose(t, scanGCVolumesFixed)
				a, b := seq[i].f, ref[i].f
				if a == nil || b == nil {
					return
				}
				if !slices.Equal(a.VolumeBits, b.VolumeBits) {
					t.Errorf("volume bits %v, oracle %v", a.VolumeBits, b.VolumeBits)
				}
				if !slices.Equal(a.GCIntervalWrites, b.GCIntervalWrites) {
					t.Errorf("Fixed intervals differ from the oracle's")
				}
				if a.ReadThreshold != b.ReadThreshold || a.WriteThreshold != b.WriteThreshold {
					t.Errorf("thresholds %v/%v, oracle %v/%v", a.ReadThreshold, a.WriteThreshold, b.ReadThreshold, b.WriteThreshold)
				}
				if a.BufferBytes != b.BufferBytes || a.BufferKind != b.BufferKind || !slices.Equal(a.FlushAlgorithms, b.FlushAlgorithms) {
					t.Errorf("buffer %d %v %v, oracle %d %v %v",
						a.BufferBytes, a.BufferKind, a.FlushAlgorithms, b.BufferBytes, b.BufferKind, b.FlushAlgorithms)
				}
			})
		}
	})
	if t.Failed() {
		return
	}

	type tally struct {
		devices                  int
		seqReqs, refReqs         int64
		seqVirt, refVirt         time.Duration
		seqDiag, refDiag         time.Duration
		seqFalse, refFalse       int
		seqMissed, refMissed     int
		seqSLCWrong, refSLCWrong int
	}
	groups := map[string]*tally{}
	var all tally
	for i, u := range units {
		g := groups[u.group]
		if g == nil {
			g = &tally{}
			groups[u.group] = g
		}
		hasSLC := u.cfg.SLCBlocks > 0
		sf, sm := bitErrors(seq[i].gcBits, u.cfg.VolumeBits)
		rf, rm := bitErrors(ref[i].gcBits, u.cfg.VolumeBits)
		for _, x := range []*tally{g, &all} {
			x.devices++
			x.seqReqs += seq[i].gcReqs
			x.refReqs += ref[i].gcReqs
			x.seqVirt += seq[i].gcVirt
			x.refVirt += ref[i].gcVirt
			x.seqDiag += seq[i].virt
			x.refDiag += ref[i].virt
			x.seqFalse += sf
			x.refFalse += rf
			x.seqMissed += sm
			x.refMissed += rm
			if (seq[i].f.SLCCachePages > 0) != hasSLC {
				x.seqSLCWrong++
			}
			if (ref[i].f.SLCCachePages > 0) != hasSLC {
				x.refSLCWrong++
			}
		}
	}

	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	// Per group, means per device: GC-scan requests, GC-scan virtual
	// seconds and whole-diagnosis virtual seconds (the time before a new
	// device's first prediction), oracle then sequential.
	t.Logf("%-7s %4s %11s %11s %6s %7s %7s %7s %7s  false/missed bits  SLC wrong", "group", "devs",
		"oracle reqs", "seq reqs", "ratio", "gc s", "seq", "diag s", "seq")
	for _, name := range append(names, "all") {
		g := &all
		if name != "all" {
			g = groups[name]
		}
		d := int64(g.devices)
		perDev := func(v time.Duration) float64 { return v.Seconds() / float64(d) }
		t.Logf("%-7s %4d %11d %11d %6.3f %7.1f %7.1f %7.1f %7.1f  %d/%d -> %d/%d  %d -> %d", name, g.devices,
			g.refReqs/d, g.seqReqs/d, float64(g.seqReqs)/float64(g.refReqs),
			perDev(g.refVirt), perDev(g.seqVirt), perDev(g.refDiag), perDev(g.seqDiag),
			g.refFalse, g.refMissed, g.seqFalse, g.seqMissed, g.refSLCWrong, g.seqSLCWrong)
	}

	// The curve: share of devices whose Table I row came out right
	// within a budget of diagnosis requests.
	for _, budget := range []int64{200_000, 300_000, 400_000, 500_000, 600_000, 700_000, 800_000, 1_000_000} {
		var s, r int
		for i, u := range units {
			if seq[i].reqs <= budget && matchesTruth(seq[i].f, u.cfg) {
				s++
			}
			if ref[i].reqs <= budget && matchesTruth(ref[i].f, u.cfg) {
				r++
			}
		}
		t.Logf("within %7d requests: oracle %3d/%d correct, sequential %3d/%d", budget, r, len(units), s, len(units))
	}

	if all.seqFalse > 0 {
		t.Errorf("sequential GC scan flagged %d false volume bits", all.seqFalse)
	}
	if all.seqMissed > all.refMissed {
		t.Errorf("sequential GC scan missed %d true bits, oracle %d", all.seqMissed, all.refMissed)
	}
	if all.seqSLCWrong > all.refSLCWrong {
		t.Errorf("%d wrong SLC verdicts after the sequential scan, %d after the oracle", all.seqSLCWrong, all.refSLCWrong)
	}
	if ratio := float64(all.seqReqs) / float64(all.refReqs); ratio > 0.5 {
		t.Errorf("sequential GC scan spent %.3f of the oracle's requests, budget 0.5", ratio)
	}
}
