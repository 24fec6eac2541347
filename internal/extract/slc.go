package extract

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/stats"
)

// DetectSLCCache probes for an SLC cache region — the secondary feature
// the paper names first on its future-work list (§VI: "If we can find
// the size of the SLC region and conditions of when SSDs flush data from
// SLC to MLC region, we can further improve the model correctness").
//
// The signature is a second, much longer periodicity in sustained-write
// stalls: the buffer drains cheaply into SLC, but every SLCCachePages
// written pages the region folds into MLC — a multi-millisecond stall
// whose period is the cache size. The probe hammers one volume with
// random writes, clusters the big stalls, and accepts the period only
// when it clearly exceeds the write-buffer period (otherwise the stalls
// are ordinary backpressure or GC).
//
// It returns the cache size in pages, or 0 when no SLC cache is evident.
func DetectSLCCache(s *Session, o Opts, volumeBits []int, bufferBytes int, writeThr time.Duration) (int, time.Duration) {
	bufferPages := bufferBytes / blockdev.PageSize
	if bufferPages < 1 {
		bufferPages = 1
	}
	writes := 6000
	if writes < 8*bufferPages {
		writes = 8 * bufferPages
	}

	// Warm up: the preceding buffer probes leave the cache region and
	// GC state mid-cycle; a couple thousand writes settle the cadence
	// before measurement starts.
	for w := 0; w < 2500; w++ {
		s.submit(blockdev.Write, s.randomPage(volumeBits...), blockdev.SectorsPerPage)
	}

	var stallIdx []int
	var stall stats.Sample
	for w := 0; w < writes; w++ {
		lat := s.submit(blockdev.Write, s.randomPage(volumeBits...), blockdev.SectorsPerPage)
		if lat > 2*time.Millisecond {
			stallIdx = append(stallIdx, w)
			stall.Add(float64(lat))
		}
	}
	period := clusterPeriod(stallIdx)
	if period <= 3*bufferPages {
		// Buffer-period backpressure or GC noise, not an SLC fold.
		return 0, 0
	}
	// A fold fires after an exact number of cached pages, so its period
	// is page-precise; garbage collection reclaims a variable number of
	// victims and its period jitters. Demand near-constant spacing.
	if periodCV(stallIdx) > 0.10 {
		return 0, 0
	}
	return period, time.Duration(stall.Percentile(50))
}

// slcMinRepeats is how many agreeing spacings a cadence needs before
// periodCV judges it. Random-write GC on an ordinary device can repeat
// one spacing three or four times within the probe (1,024–1,433 pages
// on presets A, B, F and G), which read as phantom SLC caches; a real
// fold cadence inside the probe window repeats nine times or more. The
// price is range: a 6,000-write probe cannot confirm a cache of more
// than ~1,000 pages.
const slcMinRepeats = 6

// periodCV returns a robust dispersion measure of the spacings between
// stall clusters: the coefficient of variation over the spacings within
// 15% of the median. Isolated odd gaps (a stray GC or wear-leveling
// event splitting one period) must not mask an otherwise page-exact
// fold cadence, but if fewer than two thirds of the spacings agree with
// the median, or fewer than slcMinRepeats, there is no cadence to speak
// of.
func periodCV(idx []int) float64 {
	var starts []int
	for i, x := range idx {
		if i == 0 || x-idx[i-1] > 4 {
			starts = append(starts, x)
		}
	}
	if len(starts) < 4 {
		return 1
	}
	var diffs stats.Sample
	for i := 1; i < len(starts); i++ {
		diffs.Add(float64(starts[i] - starts[i-1]))
	}
	med := diffs.Percentile(50)
	if med == 0 {
		return 1
	}
	var inliers stats.Sample
	for _, d := range diffs.Values() {
		if d >= med*0.85 && d <= med*1.15 {
			inliers.Add(d)
		}
	}
	if inliers.Len()*3 < diffs.Len()*2 || inliers.Len() < slcMinRepeats {
		return 1 // no dominant cadence, or too few repeats to tell
	}
	return inliers.StdDev() / inliers.Mean()
}
