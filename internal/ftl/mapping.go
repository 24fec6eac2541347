package ftl

import "fmt"

// allocatePage programs one logical page into the active block and
// updates the mapping, invalidating any previous copy. It assumes the
// caller already guaranteed a free page exists (GC keeps the pool above
// the low-water mark).
func (v *Volume) allocatePage(lpn int32) {
	if v.apage == int32(v.ppb) {
		v.rotateActiveBlock()
	}
	ppn := v.active*int32(v.ppb) + v.apage
	v.apage++
	v.blocks[v.active].filled++

	if old := v.l2p[lpn]; old >= 0 {
		v.p2l[old] = -1
		v.blocks[old/int32(v.ppb)].valid--
	}
	v.l2p[lpn] = ppn
	v.p2l[ppn] = lpn
	v.blocks[v.active].valid++
}

// rotateActiveBlock retires the filled active block and takes a fresh one
// from the free pool. Running the pool dry is a simulator bug (GC
// watermarks exist to prevent it), so it panics loudly.
func (v *Volume) rotateActiveBlock() {
	if len(v.free) == 0 {
		panic("ftl: free block pool exhausted; GC watermarks misconfigured")
	}
	v.active = v.free[len(v.free)-1]
	v.free = v.free[:len(v.free)-1]
	v.apage = 0
}

// unmap invalidates a logical page without writing (TRIM).
func (v *Volume) unmap(lpn int32) {
	if old := v.l2p[lpn]; old >= 0 {
		v.p2l[old] = -1
		v.blocks[old/int32(v.ppb)].valid--
		v.l2p[lpn] = -1
	}
}

// Trim invalidates the logical pages [lpn, lpn+pages). Buffered copies
// are dropped as well.
func (v *Volume) Trim(lpn int32, pages int) {
	for i := 0; i < pages; i++ {
		p := lpn + int32(i)
		if int(p) >= v.cfg.LogicalPages {
			break
		}
		v.unmap(p)
		if v.buffered(p) {
			v.bufBits[p>>6] &^= 1 << (p & 63)
			kept := v.buf[:0]
			for _, b := range v.buf {
				if b != p {
					kept = append(kept, b)
				}
			}
			v.buf = kept
		}
	}
}

// CheckInvariants verifies the FTL bookkeeping is internally consistent.
// It is exercised by property tests after random operation sequences.
func (v *Volume) CheckInvariants() error {
	// l2p/p2l must be mutually inverse where defined.
	for lpn, ppn := range v.l2p {
		if ppn < 0 {
			continue
		}
		if int(ppn) >= len(v.p2l) {
			return fmt.Errorf("lpn %d maps to out-of-range ppn %d", lpn, ppn)
		}
		if v.p2l[ppn] != int32(lpn) {
			return fmt.Errorf("lpn %d -> ppn %d but ppn maps back to %d", lpn, ppn, v.p2l[ppn])
		}
	}
	// Per-block valid counts must match the reverse map, and the write
	// pointer must bound programmed pages.
	for b := range v.blocks {
		var valid int32
		base := b * v.ppb
		for p := 0; p < v.ppb; p++ {
			if v.p2l[base+p] >= 0 {
				valid++
				if int32(p) >= v.blocks[b].filled {
					return fmt.Errorf("block %d page %d valid beyond write pointer %d", b, p, v.blocks[b].filled)
				}
				lpn := v.p2l[base+p]
				if v.l2p[lpn] != int32(base+p) {
					return fmt.Errorf("ppn %d claims lpn %d but l2p says %d", base+p, lpn, v.l2p[lpn])
				}
			}
		}
		if valid != v.blocks[b].valid {
			return fmt.Errorf("block %d valid count %d, recount %d", b, v.blocks[b].valid, valid)
		}
	}
	// Free blocks must be fully erased.
	for _, b := range v.free {
		if v.blocks[b].valid != 0 || v.blocks[b].filled != 0 {
			return fmt.Errorf("free block %d not erased (valid=%d filled=%d)", b, v.blocks[b].valid, v.blocks[b].filled)
		}
	}
	// Buffer-membership bitmap must mirror the buffer FIFO.
	counts := make([]int32, v.cfg.LogicalPages)
	for _, lpn := range v.buf {
		counts[lpn]++
	}
	for lpn, n := range counts {
		if got := v.buffered(int32(lpn)); got != (n > 0) {
			return fmt.Errorf("buffer bitmap says lpn %d buffered=%v, FIFO holds it %d times", lpn, got, n)
		}
	}
	// SLC blocks may only use their half-density page budget.
	if v.slc.enabled {
		for _, b := range v.slc.blocks {
			if v.blocks[b].filled > v.slc.usable {
				return fmt.Errorf("SLC block %d overfilled: %d > %d", b, v.blocks[b].filled, v.slc.usable)
			}
		}
	}

	// Total valid pages can never exceed logical capacity.
	var totalValid int32
	for b := range v.blocks {
		totalValid += v.blocks[b].valid
	}
	if int(totalValid) > v.cfg.LogicalPages {
		return fmt.Errorf("valid pages %d exceed logical capacity %d", totalValid, v.cfg.LogicalPages)
	}
	return nil
}
