package extract

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/stats"
)

// GCScanResult is the outcome of the GC-volume diagnosis (paper
// §III-B2, Fig. 5).
type GCScanResult struct {
	// FixedIntervals are the GC intervals (in writes) of the Fixed
	// pattern — the reference distribution and the seed of the runtime
	// GC model.
	FixedIntervals []float64
	// Points hold the chi-squared p-value per scanned bit (Fig. 5b).
	Points []BitPValue
	// VolumeBits are the bits whose Flip distribution differs from
	// Fixed below the alpha cut.
	VolumeBits []int
	// Overhead is the average observed GC stall, seeding the model.
	Overhead time.Duration
}

// gcLooks are the early looks of the sequential scan, before its cap
// Opts.GCIntervals: the per-pattern interval count n, and the p-value
// at or above which the look may settle a bit as not-volume. Looks at
// or above the cap are skipped.
var gcLooks = [...]struct {
	n       int
	settleP float64
}{{8, 0.2}, {12, 0.05}, {16, 0.05}}

// Early-look stopping rules. Looking repeatedly at growing samples
// inflates the false-alarm rate of any fixed test, so an early look may
// call a volume bit only on the chi-squared test at a Bonferroni share
// of alpha (one share per look, the cap included); with eight bins the
// test cannot reach that share below sixteen intervals. The dispersion
// ratio has no calibrated null at eight samples — non-volume bits reach
// 3.3 there, past the cap's cut of 3 — so it votes for a volume bit only
// at the cap. An early look settles a bit as not-volume once the
// p-value clears the look's settleP and the dispersion is at most
// gcSettledDisp. A true volume bit's small/large alternation lifts the
// ratio, but two volumes whose GCs happen to be evenly phased can look
// like Fixed for a few intervals, so the first look demands more.
const (
	gcEarlyAlphaShare = len(gcLooks) + 1
	gcSettledDisp     = 1.5
)

const (
	// gcLatencyCut is the latency at or above which a write is taken
	// as evidence of GC (the paper: GC is "significantly longer" than
	// anything else).
	gcLatencyCut = 8 * time.Millisecond
	// chiAlpha is the p-value below which two interval distributions
	// are declared different.
	chiAlpha = 0.001
)

// ScanGCVolumes identifies the GC-volume bit indices with the paper's
// Fixed / Flip_x snippets. Fixed writes one address repeatedly:
// self-invalidation leaves GC victims empty, so GC degenerates to pure
// erases at near-constant intervals. Flip_x alternates two addresses
// differing only in bit x: if x selects a volume, writes split across
// two GC domains and the observed interval distribution changes shape; a
// chi-squared test against Fixed flags the difference.
//
// Each bit is decided sequentially: paired Fixed/Flip intervals are
// collected in stages (gcLooks) and sampling stops once a look is
// decisive either way. A bit still open at Opts.GCIntervals is decided
// by the fixed-size rule, adaptive retry included.
func ScanGCVolumes(s *Session, o Opts) GCScanResult {
	res := GCScanResult{}

	// anchor with every scanned bit zeroed
	base, fixed, overhead := FixedGCCadence(s, o, allBits(o)...)
	res.FixedIntervals = fixed
	res.Overhead = overhead

	if len(fixed) < 4 {
		// GC never surfaced under Fixed; no interval distribution to
		// compare against. Report inconclusive p-values.
		for bit := o.MinBit; bit <= o.MaxBit; bit++ {
			res.Points = append(res.Points, BitPValue{Bit: bit, PValue: 1})
		}
		return res
	}

	for bit := o.MinBit; bit <= o.MaxBit; bit++ {
		p, volume := s.scanGCBit(o, base, bit)
		res.Points = append(res.Points, p)
		if volume {
			res.VolumeBits = append(res.VolumeBits, bit)
		}
	}
	return res
}

// FixedGCCadence runs the Fixed pattern alone: it anchors on a random
// page with zeroBits cleared, hammers that page for Opts.GCIntervals GC
// intervals, and returns the anchor, the intervals and the mean GC
// stall. Re-diagnosis calls it directly to re-measure GC cadence on a
// device whose volume topology is already known.
func FixedGCCadence(s *Session, o Opts, zeroBits ...int) (anchor int64, intervals []float64, overhead time.Duration) {
	anchor = s.randomPage(zeroBits...)
	intervals, overhead = s.collectGCIntervals(o, o.GCIntervals, anchor, -1)
	return anchor, intervals, overhead
}

// scanGCBit decides whether bit selects a GC volume.
//
// Paired design: each Flip stage is compared against a Fixed stage
// collected immediately before it. Device state drifts over a long scan
// (wear-leveling activity ramps up as the probes hammer erases), and
// comparing every bit against one stale up-front reference would flag
// that drift on every bit.
//
// Two complementary detectors decide whether the Flip distribution
// differs: the chi-squared homogeneity test, and a dispersion ratio.
// Flipping across a volume bit splits the stream over two GC domains
// whose near-simultaneous GCs turn the near-constant Fixed intervals
// into a wide small/large alternation — the dispersion blows up even
// when modest sample sizes leave the chi-squared p-value hovering near
// its threshold.
func (s *Session) scanGCBit(o Opts, base int64, bit int) (BitPValue, bool) {
	var ref, flip []float64
	grow := func(n int) {
		more, _ := s.collectGCIntervals(o, n-len(ref), base, -1)
		ref = append(ref, more...)
		more, _ = s.collectGCIntervals(o, n-len(flip), base, bit)
		flip = append(flip, more...)
	}
	for _, l := range gcLooks {
		if l.n >= o.GCIntervals {
			break
		}
		grow(l.n)
		p := stats.ChiSquaredTwoSample(ref, flip, 8).PValue
		if p < chiAlpha/float64(gcEarlyAlphaShare) {
			return BitPValue{Bit: bit, PValue: p, Intervals: l.n}, true
		}
		if p >= l.settleP && dispersionRatio(ref, flip) <= gcSettledDisp {
			return BitPValue{Bit: bit, PValue: p, Intervals: l.n}, false
		}
	}

	grow(o.GCIntervals)
	n := o.GCIntervals
	test := stats.ChiSquaredTwoSample(ref, flip, 8)
	volume := test.PValue < chiAlpha || dispersionRatio(ref, flip) > 3

	// Adaptive retry: a p-value hovering just above alpha is ambiguous
	// — neither clearly the same distribution nor clearly different.
	// Rather than let one noisy sample decide, rerun that bit once with
	// doubled sample sizes; more data pushes a true volume bit's p
	// toward zero and a non-volume bit's p toward uniform.
	if !volume && test.PValue < 50*chiAlpha {
		n = 2 * o.GCIntervals
		ref2, _ := s.collectGCIntervals(o, n, base, -1)
		flip2, _ := s.collectGCIntervals(o, n, base, bit)
		test = stats.ChiSquaredTwoSample(ref2, flip2, 8)
		volume = test.PValue < chiAlpha || dispersionRatio(ref2, flip2) > 3
	}
	return BitPValue{Bit: bit, PValue: test.PValue, Intervals: n}, volume
}

// dispersionRatio returns stddev(flip)/stddev(ref), with a floor on the
// reference so perfectly regular fixtures cannot divide by ~zero.
func dispersionRatio(ref, flip []float64) float64 {
	var a, b stats.Sample
	for _, x := range ref {
		a.Add(x)
	}
	for _, x := range flip {
		b.Add(x)
	}
	floor := a.Mean() * 0.02
	sd := a.StdDev()
	if sd < floor {
		sd = floor
	}
	if sd == 0 {
		return 1
	}
	return b.StdDev() / sd
}

// allBits lists the scanned bit range, used to zero the anchor address.
func allBits(o Opts) []int {
	bits := make([]int, 0, o.MaxBit-o.MinBit+1)
	for b := o.MinBit; b <= o.MaxBit; b++ {
		bits = append(bits, b)
	}
	return bits
}

// collectGCIntervals hammers the device with the Fixed pattern (flipBit
// < 0) or the Flip pattern on flipBit, detecting GC events as write
// latencies above the GC cut, and returns n write-count intervals
// between consecutive GC events plus the mean GC stall length. The
// writes before the first GC event are discarded: they continue
// whatever pattern ran before.
func (s *Session) collectGCIntervals(o Opts, n int, base int64, flipBit int) ([]float64, time.Duration) {
	addr := func(i int) int64 {
		if flipBit >= 0 && i%2 == 1 {
			return base | int64(1)<<uint(flipBit)
		}
		return base
	}

	var intervals []float64
	var stalls stats.Sample
	writesSince := 0
	seenFirst := false
	// Bound the probe so an undetectable device cannot hang diagnosis:
	// generous room for the requested intervals plus pool-drain warmup.
	maxWrites := n*8192 + 65536
	for i := 0; len(intervals) < n && i < maxWrites; i++ {
		lat := s.submit(blockdev.Write, addr(i), blockdev.SectorsPerPage)
		writesSince++
		if lat >= gcLatencyCut {
			if seenFirst {
				intervals = append(intervals, float64(writesSince))
			}
			seenFirst = true
			writesSince = 0
			stalls.Add(float64(lat))
		}
	}
	return intervals, time.Duration(stalls.Mean())
}
