// Package core implements SSDcheck's performance model and runtime
// framework (paper §III-C): the write-buffer model (buffer counter +
// flush detector), the history-based GC model (interval counter +
// interval distribution + GC detector), and the runtime pipeline of
// volume selector, prediction engine (EBT/EET), latency monitor and
// calibrator.
//
// The predictor consumes only information a host legitimately has: the
// features extracted by the diagnosis snippets, the requests it submits,
// and their completion times. It never touches simulator internals.
package core

import (
	"cmp"
	"math"
	"slices"
	"time"

	"ssdcheck/internal/simclock"
)

// intervalDist is the GC model's empirical distribution of GC intervals,
// counted in buffer flushes. It answers the GC detector's question:
// given that the current interval has already reached n flushes, should
// the next flush be expected to trigger GC?
//
// The answer is consulted several times per request but the history
// changes once per confirmed GC, so the distribution keeps the answer in
// threshold form: armAt is the smallest recorded interval whose
// empirical CDF reaches the quantile q, refreshed by Add and Reset.
// "CDF(n) >= q" is then exactly "n >= armAt", because the CDF is a step
// function that only rises at recorded intervals.
type intervalDist struct {
	ivs   []ivCount // distinct recorded intervals, ascending
	total int
	q     float64 // arming mass, fixed at construction
	armAt int     // smallest interval with CDF >= q; neverArms if none
}

// ivCount is how many times one interval length was observed.
type ivCount struct{ iv, n int }

// neverArms is armAt's value while no interval length can arm the
// detector: fewer than minIntervals recorded, or q above every CDF step.
const neverArms = math.MaxInt

// minIntervals is the history the detector needs before it arms at all.
const minIntervals = 3

func newIntervalDist(q float64) intervalDist {
	return intervalDist{q: q, armAt: neverArms}
}

// Add records one observed GC interval (in flushes).
func (d *intervalDist) Add(iv int) {
	if iv <= 0 {
		return
	}
	i, found := slices.BinarySearchFunc(d.ivs, iv, func(e ivCount, iv int) int { return cmp.Compare(e.iv, iv) })
	if found {
		d.ivs[i].n++
	} else {
		d.ivs = slices.Insert(d.ivs, i, ivCount{iv: iv, n: 1})
	}
	d.total++
	d.rearm()
}

// Reset discards the history — the calibrator's response to a drifting
// distribution.
func (d *intervalDist) Reset() {
	d.ivs = d.ivs[:0]
	d.total = 0
	d.rearm()
}

// rearm recomputes armAt by a prefix scan of the sorted history. The
// comparison is the float expression cum/total >= q itself, not an
// integer rearrangement of it: division by a fixed positive total is
// monotone in cum, so the first step that passes is the threshold, and
// no rounding case can make the threshold disagree with the expression.
func (d *intervalDist) rearm() {
	d.armAt = neverArms
	if d.total < minIntervals {
		return
	}
	if d.q <= 0 {
		d.armAt = 0 // even an empty prefix carries mass q
		return
	}
	cum := 0
	for _, e := range d.ivs {
		cum += e.n
		if float64(cum)/float64(d.total) >= d.q {
			d.armAt = e.iv
			return
		}
	}
}

// ewma is a fixed-alpha exponentially weighted mean for overhead
// calibration.
type ewma struct {
	val   time.Duration
	alpha float64
	init  bool
}

func newEWMA(seed time.Duration, alpha float64) *ewma {
	e := &ewma{alpha: alpha}
	if seed > 0 {
		e.val, e.init = seed, true
	}
	return e
}

// Update folds an observation in.
func (e *ewma) Update(x time.Duration) {
	if !e.init {
		e.val, e.init = x, true
		return
	}
	e.val = time.Duration(float64(e.val)*(1-e.alpha) + float64(x)*e.alpha)
}

// Value returns the current estimate.
func (e *ewma) Value() time.Duration { return e.val }

// writeObs is one completed write the model remembers for phase resync.
type writeObs struct {
	done  simclock.Time
	pages int
}

// volumeModel is the per-internal-volume state of the performance model.
type volumeModel struct {
	// Static, from extraction.
	bufPages    int
	fore        bool // fore-type buffer: flush-triggering write waits
	readTrigger bool

	// Write buffer model.
	bufCount int // estimated pages currently buffered

	// GC model.
	flushesSinceGC int
	dist           intervalDist

	// Estimated Block Time: when the volume's media becomes free.
	ebt simclock.Time

	// Calibrated overheads.
	flushOverhead *ewma
	gcOverhead    *ewma

	// disableGC switches the GC detector off (ablation).
	disableGC bool

	// Phase-resync support: a small ring of recent write completions
	// and the instant of the model's last flush event.
	recent      [24]writeObs
	recentIdx   int
	lastFlushAt simclock.Time

	// Two-strike misalignment detection: one unexpected drain-read is
	// recorded as a suspicion; a second within a few buffer periods
	// confirms the counter is out of phase. writesSeen counts observed
	// written pages to age suspicions.
	writesSeen    int64
	suspect       bool
	suspectWrites int64
}

// strikeMisalignment registers an unexpected drain observation and
// reports whether it is the confirming second strike.
func (v *volumeModel) strikeMisalignment() bool {
	horizon := int64(3 * v.bufPages)
	if v.suspect && v.writesSeen-v.suspectWrites <= horizon {
		v.suspect = false
		return true
	}
	v.suspect = true
	v.suspectWrites = v.writesSeen
	return false
}

// noteWrite records a completed write for later phase resync.
func (v *volumeModel) noteWrite(done simclock.Time, pages int) {
	v.recent[v.recentIdx] = writeObs{done: done, pages: pages}
	v.recentIdx = (v.recentIdx + 1) % len(v.recent)
}

// resyncBuffer repairs the buffer counter after an observed drain the
// counter did not anticipate: the device's buffer now holds exactly the
// pages written after the flush trigger, and the trigger sits roughly
// one drain-length before the observed completion. Counting the recent
// writes inside (drainStart, asOf] re-locks the model's phase onto the
// device's, which matters because a counter that runs even slightly late
// misses every subsequent drain.
func (v *volumeModel) resyncBuffer(drainStart, asOf simclock.Time) {
	eps := 0
	for _, w := range v.recent {
		if w.pages > 0 && w.done.After(drainStart) && !w.done.After(asOf) {
			eps += w.pages
		}
	}
	if eps > v.bufPages-1 {
		eps = v.bufPages - 1
	}
	v.bufCount = eps
}

// predictGCOnFlush reports whether the GC detector expects the next
// flush to trigger GC: the interval, counting that flush, has reached
// mass GCQuantile of the history.
func (v *volumeModel) predictGCOnFlush() bool {
	return !v.disableGC && v.flushesSinceGC+1 >= v.dist.armAt
}
