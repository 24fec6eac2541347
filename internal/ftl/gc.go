package ftl

import (
	"time"

	"ssdcheck/internal/simclock"
)

// maybeGC runs garbage collection if the free pool has fallen to the
// low-water mark, starting when the media goes idle at mediaIdleAt. It
// reclaims victims greedily (fewest valid pages first, per the paper's
// representative FTL) until the pool is refilled past the watermarks,
// occasionally interleaving a threshold wear-leveling move.
func (v *Volume) maybeGC(mediaIdleAt simclock.Time) {
	if len(v.free) > v.cfg.GCLowBlocks {
		return
	}
	v.stats.GCs++
	// Real FTLs reclaim a variable amount per invocation depending on
	// pool pressure and victim quality; the jitter keeps GC intervals
	// a distribution rather than a constant, as observed on real SSDs
	// (paper Fig. 5a).
	target := v.cfg.GCLowBlocks + v.cfg.GCReclaimBlocks + v.rng.Intn(v.cfg.GCReclaimBlocks/2+1)
	var dur time.Duration
	for len(v.free) < target {
		victim := v.selectVictim()
		if victim < 0 {
			break // nothing reclaimable; avoid spinning
		}
		dur += v.reclaim(victim)
	}
	if v.cfg.WearLevelDelta > 0 {
		dur += v.maybeWearLevel()
	}
	if v.cfg.ChargeGC {
		v.gcBusyUntil = v.gcBusyUntil.Max(mediaIdleAt).Add(v.jitter(dur))
	}
}

// selectVictim returns the fully-programmed block with the fewest valid
// pages, skipping the active block, or -1 if no block can yield space.
func (v *Volume) selectVictim() int32 {
	best := int32(-1)
	bestValid := int32(v.ppb) // a full-valid block yields nothing
	for b := range v.blocks {
		if int32(b) == v.active || v.blocks[b].filled < int32(v.ppb) {
			continue
		}
		if v.blocks[b].valid < bestValid {
			bestValid = v.blocks[b].valid
			best = int32(b)
		}
	}
	return best
}

// reclaim merges the victim's valid pages into the active allocation
// stream and erases it, returning the media time consumed.
func (v *Volume) reclaim(victim int32) time.Duration {
	valid := int(v.blocks[victim].valid)
	if valid > 0 {
		base := victim * int32(v.ppb)
		for p := int32(0); p < int32(v.ppb); p++ {
			if lpn := v.p2l[base+p]; lpn >= 0 {
				v.allocatePage(lpn)
			}
		}
		v.stats.PagesMerged += uint64(valid)
	}
	v.eraseBlock(victim)
	v.stats.VictimsReclaims++
	return v.timing.GCCost(valid)
}

// eraseBlock clears a block's pages and returns it to the free pool.
func (v *Volume) eraseBlock(b int32) {
	base := b * int32(v.ppb)
	for p := int32(0); p < int32(v.ppb); p++ {
		v.p2l[base+p] = -1
	}
	v.blocks[b].valid = 0
	v.blocks[b].filled = 0
	v.blocks[b].erases++
	v.stats.Erases++
	v.free = append(v.free, b)
}

// maybeWearLevel applies threshold-based wear leveling: when the erase
// count spread exceeds the configured delta, the coldest (least-erased,
// fully-programmed) block is relocated and erased so future writes can
// wear it. Returns the media time consumed, zero if no move was needed.
func (v *Volume) maybeWearLevel() time.Duration {
	minE, maxE := int32(1<<30), int32(-1)
	cold := int32(-1)
	for b := range v.blocks {
		e := v.blocks[b].erases
		if e > maxE {
			maxE = e
		}
		if e < minE {
			minE = e
		}
		if int32(b) != v.active && v.blocks[b].filled == int32(v.ppb) {
			if cold < 0 || e < v.blocks[cold].erases {
				cold = int32(b)
			}
		}
	}
	if cold < 0 || maxE-minE <= int32(v.cfg.WearLevelDelta) {
		return 0
	}
	v.stats.WearMoves++
	return v.reclaim(cold)
}
