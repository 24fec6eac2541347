package extract

import (
	"sort"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/stats"
)

// BufferResult is the tuple Algorithm 1 of the paper returns: buffer
// size, buffer type, and the list of flush algorithms, plus the measured
// flush overhead that seeds the runtime model.
type BufferResult struct {
	Bytes           int
	Kind            BufferKind
	FlushAlgorithms []FlushAlgorithm
	FlushOverhead   time.Duration
}

// AnalyzeWriteBuffer runs the paper's Algorithm 1 verbatim:
//
//	if size := background_read_test() > 0:      back buffer, full trigger
//	else if read_trigger_flush_test():
//	    if size := write_only_test() > 0:       fore buffer
//	    else:                                   unknown type
//	    flush algorithms = full + read trigger
//	else: nothing identifiable
//
// All probes confine their writes to internal volume zero (every known
// volume bit held at zero), since the volume analysis has already run
// and cross-volume interference would corrupt the periodicity signals.
func AnalyzeWriteBuffer(s *Session, o Opts, volumeBits []int, readThr, writeThr time.Duration) BufferResult {
	res := BufferResult{Kind: BufferUnknown}

	if size, overhead := s.backgroundReadTest(o, volumeBits, readThr); size > 0 {
		res.Bytes = size
		res.Kind = BufferBack
		res.FlushAlgorithms = []FlushAlgorithm{FlushFull}
		res.FlushOverhead = overhead
		return res
	}
	if s.readTriggerFlushTest(o, volumeBits, readThr) {
		res.FlushAlgorithms = []FlushAlgorithm{FlushFull, FlushReadTrigger}
		if size, overhead := s.writeOnlyTest(o, volumeBits, writeThr); size > 0 {
			res.Bytes = size
			res.Kind = BufferFore
			res.FlushOverhead = overhead
		}
		return res
	}
	return res
}

// backgroundReadTest interleaves thinktime-paced random writes with
// background reads and watches for periodic HL reads: on a back-type
// buffer, reads stall only while a full buffer drains, so the write
// count between HL-read clusters is the buffer size in pages (Fig. 6).
// The probe runs at several thinktimes and demands a consistent answer.
// It returns 0 if no consistent periodicity exists.
func (s *Session) backgroundReadTest(o Opts, volumeBits []int, readThr time.Duration) (int, time.Duration) {
	sizes := make([]int, 0, len(o.Thinktimes))
	var overhead stats.Sample
	for _, tt := range o.Thinktimes {
		period, stall, hlFrac := s.readProbeRun(o, volumeBits, readThr, tt, 700)
		if hlFrac > 0.5 {
			// Reads are slow regardless of write count: a
			// read-trigger device, not a background drain.
			return 0, 0
		}
		if period <= 0 {
			return 0, 0
		}
		sizes = append(sizes, period)
		overhead.Add(float64(stall))
	}
	for _, sz := range sizes[1:] {
		if !within(sz, sizes[0], 0.15) {
			return 0, 0 // thinktimes disagree: not a buffer signal
		}
	}
	return sizes[0] * blockdev.PageSize, time.Duration(overhead.Mean())
}

// readProbeRun performs one probe run of the background-read test:
// each thinktime-paced write is immediately chased by one background
// read, the QD1 rendition of the paper's concurrent reader. A write that
// triggers a drain stalls its chasing read no matter how long the
// thinktime is, so the write count between HL reads is the buffer size
// in pages. It returns the dominant write-count period between HL-read
// clusters, the mean HL-read stall, and the HL fraction of the reads.
func (s *Session) readProbeRun(o Opts, volumeBits []int, readThr time.Duration, thinktime time.Duration, writes int) (int, time.Duration, float64) {
	var hlWriteIdx []int
	var stall stats.Sample
	hlWrites := 0
	for w := 0; w < writes; w++ {
		s.submit(blockdev.Write, s.randomPage(volumeBits...), blockdev.SectorsPerPage)
		if lat := s.submit(blockdev.Read, s.randomPage(volumeBits...), blockdev.SectorsPerPage); lat > readThr {
			hlWrites++
			hlWriteIdx = append(hlWriteIdx, w)
			stall.Add(float64(lat))
		}
		s.think(thinktime)
	}
	period := clusterPeriod(hlWriteIdx)
	return period, time.Duration(stall.Percentile(50)), float64(hlWrites) / float64(writes)
}

// clusterPeriod groups HL indices into clusters (consecutive events
// within a few writes belong to one drain window) and extracts the
// dominant spacing between cluster starts. Unmodeled one-off stalls
// (wear-leveling moves etc.) interleave extra events that split true
// periods into pairs summing to the period, so the detector considers
// consecutive spacings together with their two- and three-step sums and
// takes the best-supported value. It returns 0 when no spacing explains
// at least half of the observations.
func clusterPeriod(idx []int) int {
	if len(idx) < 3 {
		return 0
	}
	var starts []int
	for i, x := range idx {
		if i == 0 || x-idx[i-1] > 4 {
			starts = append(starts, x)
		}
	}
	if len(starts) < 3 {
		return 0
	}
	diffs := make([]int, 0, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		diffs = append(diffs, starts[i]-starts[i-1])
	}
	var candidates []int
	candidates = append(candidates, diffs...)
	for i := 1; i < len(diffs); i++ {
		candidates = append(candidates, diffs[i]+diffs[i-1])
	}
	for i := 2; i < len(diffs); i++ {
		candidates = append(candidates, diffs[i]+diffs[i-1]+diffs[i-2])
	}

	// Score each candidate by how many pool entries agree with it, and
	// take the smallest well-supported one: the multi-step sums of the
	// true period pile support onto its multiples, so "largest support"
	// alone would sometimes report 2x the period.
	minSupport := len(diffs) / 2
	if minSupport < 3 {
		minSupport = 3
	}
	best := 0
	for _, c := range candidates {
		if c <= 0 {
			continue
		}
		var supporters []int
		for _, d := range candidates {
			if within(d, c, 0.12) {
				supporters = append(supporters, d)
			}
		}
		if len(supporters) < minSupport {
			continue
		}
		sort.Ints(supporters)
		med := supporters[len(supporters)/2] // median resists stragglers
		if best == 0 || med < best {
			best = med
		}
	}
	return best
}

// readTriggerFlushTest checks whether a read explicitly triggers a
// buffer flush: after a single buffered write, a read to an unrelated
// address should be NL unless the device flushes on reads.
func (s *Session) readTriggerFlushTest(o Opts, volumeBits []int, readThr time.Duration) bool {
	const trials = 60
	hl := 0
	for i := 0; i < trials; i++ {
		s.submit(blockdev.Write, s.randomPage(volumeBits...), blockdev.SectorsPerPage)
		// Random thinktime: the paper stresses that submission timing
		// must not matter for the trigger to be declared.
		s.think(time.Duration(200+s.rng.Intn(3000)) * time.Microsecond)
		if lat := s.submit(blockdev.Read, s.randomPage(volumeBits...), blockdev.SectorsPerPage); lat > readThr {
			hl++
		}
		s.think(500 * time.Microsecond)
	}
	return float64(hl)/trials > 0.8
}

// writeOnlyTest issues back-to-back random writes into a single volume
// and looks for periodic HL writes whose stall matches NAND program
// costs — the fore-type signature: the flush-triggering write waits. The
// period is the buffer size in pages.
func (s *Session) writeOnlyTest(o Opts, volumeBits []int, writeThr time.Duration) (int, time.Duration) {
	const writes = 3000
	var hlIdx []int
	var stall stats.Sample
	for w := 0; w < writes; w++ {
		lat := s.submit(blockdev.Write, s.randomPage(volumeBits...), blockdev.SectorsPerPage)
		if lat > writeThr && lat < gcLatencyCut {
			hlIdx = append(hlIdx, w)
			stall.Add(float64(lat))
		}
	}
	period := clusterPeriod(hlIdx)
	if period <= 0 {
		return 0, 0
	}
	// The stall must look like NAND program work, not mere queueing.
	if stall.Mean() < float64(200*time.Microsecond) {
		return 0, 0
	}
	return period * blockdev.PageSize, time.Duration(stall.Percentile(50))
}

// within reports whether a is within frac of b.
func within(a, b int, frac float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) <= frac*float64(b)
}
