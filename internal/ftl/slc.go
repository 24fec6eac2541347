package ftl

import "time"

// SLC caching (paper §VI, listed as future work): some MLC/TLC SSDs
// program a reserved region of blocks in fast SLC mode and land all
// buffer flushes there; when the region fills, a *fold* relocates the
// cached pages into MLC blocks — a long stall with a strict page-count
// period, the well-known "SLC cache cliff".
//
// The implementation reserves SLCBlocks blocks from the pool at volume
// construction. Each holds only half its pages (SLC density) but
// programs at Timing.ProgramSLC. Flush drains target the SLC region
// while it has space; exhaustion triggers a fold.

// slcState tracks the SLC cache region of a volume.
type slcState struct {
	blocks  []int32 // reserved block ids
	free    []int32 // erased SLC blocks
	active  int32   // SLC block accepting programs, -1 none
	apage   int32   // next page within the active SLC block
	usable  int32   // usable pages per SLC block (half density)
	enabled bool
}

// initSLC carves the SLC region out of the free pool.
func (v *Volume) initSLC() {
	n := v.cfg.SLCBlocks
	if n <= 0 {
		return
	}
	v.slc.enabled = true
	v.slc.usable = int32(v.ppb / 2)
	for i := 0; i < n; i++ {
		b := v.free[len(v.free)-1]
		v.free = v.free[:len(v.free)-1]
		v.slc.blocks = append(v.slc.blocks, b)
		v.slc.free = append(v.slc.free, b)
	}
	v.slc.active = -1
}

// slcHasSpace reports whether the cache can absorb n more pages.
func (v *Volume) slcHasSpace(n int) bool {
	space := int32(len(v.slc.free)) * v.slc.usable
	if v.slc.active >= 0 {
		space += v.slc.usable - v.slc.apage
	}
	return int(space) >= n
}

// slcAllocate programs one logical page into the SLC region.
func (v *Volume) slcAllocate(lpn int32) {
	if v.slc.active < 0 || v.slc.apage == v.slc.usable {
		last := len(v.slc.free) - 1
		v.slc.active = v.slc.free[last]
		v.slc.free = v.slc.free[:last]
		v.slc.apage = 0
	}
	ppn := v.slc.active*int32(v.ppb) + v.slc.apage
	v.slc.apage++
	v.blocks[v.slc.active].filled++

	if old := v.l2p[lpn]; old >= 0 {
		v.p2l[old] = -1
		v.blocks[old/int32(v.ppb)].valid--
	}
	v.l2p[lpn] = ppn
	v.p2l[ppn] = lpn
	v.blocks[v.slc.active].valid++
}

// fold relocates every valid page of the SLC region into MLC blocks and
// erases the region, returning the media time consumed. This is the SLC
// cache cliff: reads of the cached pages plus MLC programs plus erases.
func (v *Volume) fold() time.Duration {
	var moved int
	var dur time.Duration
	blocksToFold := usedSLC(v)
	for _, b := range blocksToFold {
		valid := int(v.blocks[b].valid)
		if valid > 0 {
			base := b * int32(v.ppb)
			for p := int32(0); p < int32(v.ppb); p++ {
				if lpn := v.p2l[base+p]; lpn >= 0 {
					v.allocatePage(lpn)
				}
			}
			moved += valid
		}
		v.eraseBlock(b) // clears and appends to v.free...
		// eraseBlock pushed it onto the MLC free pool; reclaim it for
		// the SLC region instead.
		v.free = v.free[:len(v.free)-1]
		v.slc.free = append(v.slc.free, b)
		dur += v.timing.EraseBlock
	}
	v.slc.active = -1
	v.slc.apage = 0
	dur += v.timing.MergeCost(moved)
	v.stats.Folds++
	v.stats.PagesFolded += uint64(moved)
	return dur
}

// usedSLC lists the SLC blocks currently holding data (active and full).
func usedSLC(v *Volume) []int32 {
	out := make([]int32, 0, len(v.slc.blocks))
	for _, b := range v.slc.blocks {
		if v.blocks[b].filled > 0 {
			out = append(out, b)
		}
	}
	return out
}
