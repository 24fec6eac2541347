package ftl

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// Write buffers pages logical pages starting at lpn, submitted at the
// given instant, and returns the acknowledgement time plus the
// ground-truth cause of any stall.
//
// Back-type buffers (double buffering) acknowledge immediately unless the
// previous flush is still draining (backpressure). Fore-type buffers make
// the flush-triggering write wait for the whole drain.
func (v *Volume) Write(lpn int32, pages int, at simclock.Time) (simclock.Time, blockdev.Cause) {
	v.checkMonotonic(at)
	if pages <= 0 {
		pages = 1
	}
	t := at
	cause := blockdev.CauseNone
	for i := 0; i < pages; i++ {
		p := lpn + int32(i)
		if int(p) >= v.cfg.LogicalPages {
			break
		}
		var c blockdev.Cause
		t, c = v.bufferOnePage(p, t)
		cause = worse(cause, c)
	}
	v.stats.Writes += uint64(pages)
	done := t.Add(v.jitter(v.timing.BufferAck))
	return done, cause
}

// bufferOnePage places one page into the write buffer, flushing first if
// the buffer is full, and returns the instant the page is accepted.
func (v *Volume) bufferOnePage(lpn int32, t simclock.Time) (simclock.Time, blockdev.Cause) {
	cause := blockdev.CauseNone
	if len(v.buf) >= v.cfg.BufferPages {
		switch v.cfg.BufferType {
		case BufferBack:
			// Swapping to the spare buffer requires the previous
			// drain to have finished.
			if busy := v.mediaBusyUntil(); busy.After(t) {
				cause = worse(cause, blockdev.CauseBackpressure)
				if v.gcBusyUntil.After(t) {
					cause = worse(cause, blockdev.CauseGC)
				}
				t = busy
			}
			v.startFlush(t)
			// The write itself lands in the fresh buffer and is
			// acknowledged without waiting for the drain.
		case BufferFore:
			// The triggering write waits for the full drain (and
			// any GC it provokes).
			end, gcRan := v.flushAndWait(t)
			if gcRan {
				cause = worse(cause, blockdev.CauseGC)
			} else {
				cause = worse(cause, blockdev.CauseFlush)
			}
			t = end
		}
	}
	v.buf = append(v.buf, lpn)
	v.bufBits[lpn>>6] |= 1 << (lpn & 63)
	return t, cause
}

// startFlush begins draining the current buffer at instant t, occupying
// the media for the flush duration (and any GC the flush provokes). The
// mapping is updated immediately; no request can observe NAND state
// before the media goes idle, so this is observationally equivalent to
// updating at drain completion.
func (v *Volume) startFlush(t simclock.Time) {
	n := len(v.buf)
	if n == 0 {
		return
	}
	// Touch every mapping entry the drain is about to rewrite, so its
	// independent cache misses overlap instead of queueing one behind
	// each page's read-modify-write in the allocation loop. The check
	// is what obliges the compiler to keep the loads.
	for _, lpn := range v.buf {
		if v.l2p[lpn] < -1 {
			panic("ftl: corrupt mapping entry")
		}
	}
	var foldDur time.Duration
	if v.slc.enabled {
		// The drain lands in the SLC region; folding first if the
		// region cannot absorb it — the SLC cache cliff.
		if !v.slcHasSpace(n) {
			foldDur = v.fold()
		}
		for _, lpn := range v.buf {
			v.slcAllocate(lpn)
		}
	} else {
		for _, lpn := range v.buf {
			v.allocatePage(lpn)
		}
	}
	// Every buffered page is draining, so whole words can be zeroed.
	for _, lpn := range v.buf {
		v.bufBits[lpn>>6] = 0
	}
	v.buf = v.buf[:0]
	v.stats.Flushes++

	var dur time.Duration
	if v.cfg.ChargeFlush {
		cost := v.timing.FlushCost(n, v.planes)
		if v.slc.enabled {
			cost = v.timing.FlushCostSLC(n, v.planes)
		}
		dur = v.jitter(cost + foldDur)
	}
	start := v.mediaBusyUntil().Max(t)
	v.flushBusyUntil = start.Add(dur)
	v.maybeGC(v.flushBusyUntil)
}

// flushAndWait drains the buffer synchronously and returns the completion
// instant and whether GC ran as part of it.
func (v *Volume) flushAndWait(t simclock.Time) (simclock.Time, bool) {
	gcsBefore := v.stats.GCs
	v.startFlush(t)
	end := v.mediaBusyUntil().Max(t)
	return end, v.stats.GCs != gcsBefore
}

// Read serves pages logical pages starting at lpn, submitted at the
// given instant.
func (v *Volume) Read(lpn int32, pages int, at simclock.Time) (simclock.Time, blockdev.Cause) {
	v.checkMonotonic(at)
	if pages <= 0 {
		pages = 1
	}
	v.stats.Reads += uint64(pages)
	cause := blockdev.CauseNone
	t := at

	// Read-trigger flush: SSDs F and G flush on any read that finds a
	// non-empty write buffer, and the read waits for the drain.
	if v.cfg.ReadTriggerFlush && len(v.buf) > 0 {
		end, gcRan := v.flushAndWait(t)
		if gcRan {
			cause = blockdev.CauseGC
		} else {
			cause = blockdev.CauseReadTrigger
		}
		t = end.Max(t)
	} else if v.allBuffered(lpn, pages) {
		// Served straight from buffer RAM; media state irrelevant.
		v.stats.BufferHits += uint64(pages)
		return at.Add(v.jitter(v.timing.BufferRead)), blockdev.CauseNone
	}

	if busy := v.mediaBusyUntil(); busy.After(t) {
		cause = worse(cause, v.delayCause(t))
		t = busy
	}
	done := t.Add(v.jitter(v.timing.ReadCost(pages, v.planes)))
	return done, cause
}

// allBuffered reports whether every page of the range currently sits in
// the active write buffer.
func (v *Volume) allBuffered(lpn int32, pages int) bool {
	if len(v.buf) == 0 {
		return false
	}
	for i := 0; i < pages; i++ {
		p := lpn + int32(i)
		if int(p) >= v.cfg.LogicalPages || !v.buffered(p) {
			return false
		}
	}
	return true
}

// buffered reports whether logical page p sits in the active buffer.
func (v *Volume) buffered(p int32) bool {
	return v.bufBits[p>>6]&(1<<(p&63)) != 0
}
