package ecvol

import (
	"errors"
	"fmt"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
)

// WriteResult is one served chunk write.
type WriteResult struct {
	// Value is the fingerprint now stored at the chunk.
	Value uint64 `json:"value"`
	// Latency is the foreground service time. With deferred parity
	// that is the data write alone; the oblivious baseline pays the
	// slowest of the data and parity writes inline.
	Latency time.Duration `json:"latency_ns"`
	// Degraded reports that the data shard write failed and the chunk
	// is currently served by reconstruction (parity was force-flushed
	// to keep it recoverable).
	Degraded bool `json:"degraded,omitempty"`
}

// Write stores the next version of logical chunk `chunk` and returns
// the new fingerprint. The data shard is written in the foreground;
// parity handling depends on Config.Predictive — staged and flushed
// into predicted-HL windows under the durability budget, or written
// inline.
func (v *Volume) Write(chunk int64) (WriteResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return WriteResult{}, ErrClosed
	}
	if chunk < 0 || chunk >= v.Chunks() {
		return WriteResult{}, fmt.Errorf("%w: chunk %d of %d", ErrOutOfRange, chunk, v.Chunks())
	}
	stripe := int(chunk / int64(v.cfg.Data))
	slot := int(chunk % int64(v.cfg.Data))
	st := &v.stripes[stripe]
	v.stats.Writes++

	st.version[slot]++
	st.data[slot] = Fingerprint(v.cfg.Seed, uint64(chunk), st.version[slot])

	v.refreshSteeringLocked()
	owner := v.place.device(stripe, slot)

	res := WriteResult{Value: st.data[slot]}
	if !v.cfg.Predictive {
		lat, degraded, err := v.writeInlineLocked(stripe, slot, owner)
		if err != nil {
			v.stats.WriteErrors++
			return WriteResult{}, err
		}
		res.Latency, res.Degraded = lat, degraded
		v.hWrite.Observe(res.Latency)
		return res, nil
	}

	out, err := v.submitOne(owner, blockdev.Write, stripe)
	if err != nil {
		v.stats.WriteErrors++
		return WriteResult{}, err
	}
	if out.Err != nil {
		// Degraded write: the new value never reached the data shard.
		// The chunk is recoverable only through parity, so the staged
		// window closes immediately — flush now, before anything else
		// can go wrong.
		st.dataStale[slot] = true
		res.Degraded = true
		v.stats.DegradedWrites++
		st.parityStale = true
		v.pushPendingLocked(stripe)
		if _, ok := v.flushStripeLocked(stripe, causeDegraded); !ok && st.parityStale {
			// Parity could not be made durable either; the stripe is
			// one more failure from data loss. Surface it as an error —
			// the write is not durable.
			v.stats.WriteErrors++
			return WriteResult{}, fmt.Errorf("ecvol: degraded write, parity flush failed: %w", out.Err)
		}
	} else {
		st.dataStale[slot] = false
		// Stage the parity update: the on-device parity now predates
		// the data, bounded by the deferral deadline.
		if !st.parityStale {
			st.parityStale = true
			st.flushBy = v.vnow.Add(v.cfg.MaxDeferral)
			v.pushPendingLocked(stripe)
		}
	}
	res.Latency = out.Latency
	v.hWrite.Observe(res.Latency)
	v.scheduleLocked()
	return res, nil
}

// writeInlineLocked is the oblivious write: data and parity in one
// foreground batch, latency the slowest of them.
func (v *Volume) writeInlineLocked(stripe, slot, owner int) (time.Duration, bool, error) {
	st := &v.stripes[stripe]
	v.scratchVals = v.scratchVals[:0]
	if cap(v.scratchVals) < v.cfg.Parity {
		v.scratchVals = make([]uint64, 0, v.cfg.Parity)
	}
	newParity := v.scratchVals[:v.cfg.Parity]
	v.cod.encode(st.data, newParity)

	v.scratchReqs = v.scratchReqs[:0]
	v.scratchReqs = append(v.scratchReqs, fleet.Request{
		DeviceID: v.cfg.Devices[owner],
		Op:       blockdev.Write,
		LBA:      v.deviceLBA(stripe),
		Sectors:  v.cfg.ChunkSectors,
	})
	for r := 0; r < v.cfg.Parity; r++ {
		if st.parityDead[r] {
			continue
		}
		v.scratchReqs = append(v.scratchReqs, fleet.Request{
			DeviceID: v.cfg.Devices[v.place.device(stripe, v.cfg.Data+r)],
			Op:       blockdev.Write,
			LBA:      v.deviceLBA(stripe),
			Sectors:  v.cfg.ChunkSectors,
		})
	}
	out, err := v.submitLocked()
	if err != nil {
		return 0, false, err
	}
	var worst time.Duration
	for _, r := range out {
		if r.Latency > worst {
			worst = r.Latency
		}
		if r.Err == nil {
			v.note(r.CompletedAt)
		}
	}
	degraded := false
	if out[0].Err != nil {
		st.dataStale[slot] = true
		degraded = true
		v.stats.DegradedWrites++
	} else {
		st.dataStale[slot] = false
	}
	i := 1
	for r := 0; r < v.cfg.Parity; r++ {
		if st.parityDead[r] {
			continue
		}
		if res := out[i]; res.Err != nil {
			if errors.Is(res.Err, blockdev.ErrDeviceFailed) || errors.Is(res.Err, fleet.ErrDeviceQuarantined) {
				st.parityDead[r] = true
				v.noteParityDeadLocked(st)
			}
			// Transient parity miss in oblivious mode: the shard keeps
			// its previous (now stale) value; the next write to the
			// stripe rewrites it. Degraded reads exclude it via the
			// decode slot choice only if it later fail-stops — accept
			// the window, as a parity-journal-free baseline does.
		} else {
			st.parity[r] = newParity[r]
		}
		i++
	}
	v.stats.ParityFlushes[causeInline]++
	return worst, degraded, nil
}

// pushPendingLocked queues a stripe for parity flushing (idempotent).
func (v *Volume) pushPendingLocked(stripe int) {
	for _, s := range v.pending {
		if s == stripe {
			return
		}
	}
	v.pending = append(v.pending, stripe)
}

// dropPendingLocked removes a stripe from the flush queue.
func (v *Volume) dropPendingLocked(stripe int) {
	for i, s := range v.pending {
		if s == stripe {
			v.pending = append(v.pending[:i], v.pending[i+1:]...)
			break
		}
	}
}

// noteParityDeadLocked accounts a stripe that just lost a parity
// shard for good; if none remain the stripe runs with no staged
// redundancy at all.
func (v *Volume) noteParityDeadLocked(st *stripeState) {
	for _, dead := range st.parityDead {
		if !dead {
			return
		}
	}
	v.stats.RedundancyLost++
}

// flushStripeLocked writes the stripe's current parity to its live
// parity shards. Returns the batch latency and whether the stripe's
// staged state fully drained. Partial failures keep the stripe staged
// with an extended deadline; fail-stopped shards are retired.
func (v *Volume) flushStripeLocked(stripe int, cause string) (time.Duration, bool) {
	st := &v.stripes[stripe]
	if !st.parityStale {
		return 0, true
	}
	if cap(v.scratchVals) < v.cfg.Parity {
		v.scratchVals = make([]uint64, 0, v.cfg.Parity)
	}
	newParity := v.scratchVals[:v.cfg.Parity]
	v.cod.encode(st.data, newParity)

	v.scratchReqs = v.scratchReqs[:0]
	v.scratchSlots = v.scratchSlots[:0]
	for r := 0; r < v.cfg.Parity; r++ {
		if st.parityDead[r] {
			continue
		}
		v.scratchSlots = append(v.scratchSlots, r)
		v.scratchReqs = append(v.scratchReqs, fleet.Request{
			DeviceID: v.cfg.Devices[v.place.device(stripe, v.cfg.Data+r)],
			Op:       blockdev.Write,
			LBA:      v.deviceLBA(stripe),
			Sectors:  v.cfg.ChunkSectors,
		})
	}
	if len(v.scratchReqs) == 0 {
		// Every parity shard is gone; there is nothing left to make
		// durable. Stop tracking the stripe rather than spinning.
		st.parityStale = false
		v.dropPendingLocked(stripe)
		return 0, true
	}
	out, err := v.submitLocked()
	if err != nil {
		return 0, false
	}
	var worst time.Duration
	ok := true
	for i, res := range out {
		if res.Latency > worst {
			worst = res.Latency
		}
		r := v.scratchSlots[i]
		if res.Err != nil {
			if errors.Is(res.Err, blockdev.ErrDeviceFailed) || errors.Is(res.Err, fleet.ErrDeviceQuarantined) {
				// By the time a flush runs, the stripe's deferral is
				// up — the data needs its redundancy now, and a
				// fail-stopped or out-of-service member cannot provide
				// it. Retire the slot so staged parity stays bounded
				// instead of waiting on a device that may never
				// return.
				st.parityDead[r] = true
				v.noteParityDeadLocked(st)
				continue
			}
			// Transient failure: retry on a later scheduler pass, with
			// the deadline pushed out so the budget loop does not spin
			// on a shard mid-hiccup.
			ok = false
			continue
		}
		v.note(res.CompletedAt)
		st.parity[r] = newParity[r]
	}
	// A shard that fail-stopped mid-flush no longer counts against
	// completeness; recheck what is live.
	if !ok {
		live := false
		for r := 0; r < v.cfg.Parity; r++ {
			if !st.parityDead[r] {
				live = true
				break
			}
		}
		if !live {
			ok = true
		}
	}
	v.stats.ParityFlushes[cause]++
	v.hFlush.Observe(worst)
	if ok {
		st.parityStale = false
		v.dropPendingLocked(stripe)
	} else {
		v.stats.FlushRetries++
		st.flushBy = v.vnow.Add(v.cfg.MaxDeferral)
	}
	return worst, ok
}

// scheduleLocked is the deferred-parity scheduler, run after every
// foreground operation. In priority order: deadline-expired stripes
// flush unconditionally; stripes whose parity targets are in a
// predicted-HL window flush opportunistically (the background write
// rides the slow window foreground reads are steered around, and the
// stripe regains full redundancy before the window's GC makes the
// device genuinely slow for everyone); stripes whose parity targets
// left the healthy state flush while the shard can still take writes.
// Then the durability budget: oldest stripes flush until the staged
// count is back under MaxPendingStripes.
func (v *Volume) scheduleLocked() {
	if !v.cfg.Predictive || len(v.pending) == 0 {
		return
	}
	v.refreshSteeringLocked()

	// Snapshot the queue: flushes mutate v.pending.
	work := append(v.scratchWork[:0], v.pending...)
	v.scratchWork = work
	for _, stripe := range work {
		st := &v.stripes[stripe]
		if !st.parityStale {
			continue
		}
		cause := ""
		if !st.flushBy.After(v.vnow) {
			cause = causeDeadline
		} else {
			for r := 0; r < v.cfg.Parity && cause == ""; r++ {
				if st.parityDead[r] {
					continue
				}
				snap := v.snaps[v.place.device(stripe, v.cfg.Data+r)]
				switch {
				case snap.Available && snap.Risky():
					cause = causeHLWindow
				case snap.Health != fleet.Healthy:
					cause = causeHealth
				}
			}
		}
		if cause != "" {
			v.flushStripeLocked(stripe, cause)
		}
	}
	for len(v.pending) > v.cfg.MaxPendingStripes {
		if _, ok := v.flushStripeLocked(v.pending[0], causeBudget); !ok {
			// The oldest stripe's shards cannot take writes right now;
			// its deadline was pushed out, so requeue it behind the
			// rest and stop forcing this pass.
			s := v.pending[0]
			v.dropPendingLocked(s)
			v.pending = append(v.pending, s)
			break
		}
	}
	// The budget high-water mark is what an observer could see between
	// operations — i.e. after the scheduler has enforced the bound.
	if len(v.pending) > v.stats.MaxPendingObserved {
		v.stats.MaxPendingObserved = len(v.pending)
	}
}

// Flush forces every staged parity update out now, regardless of
// deadlines or windows. It returns ErrStripeLost-free: stripes whose
// parity shards are all gone are skipped (already accounted in
// Stats.RedundancyLost).
func (v *Volume) Flush() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return ErrClosed
	}
	v.flushAllLocked(causeForce)
	if len(v.pending) > 0 {
		return fmt.Errorf("ecvol: %d stripes still staged after forced flush", len(v.pending))
	}
	return nil
}

func (v *Volume) flushAllLocked(cause string) {
	work := append([]int(nil), v.pending...)
	for _, stripe := range work {
		v.flushStripeLocked(stripe, cause)
	}
}
