// Package ftl implements the flash translation layer of one internal SSD
// volume: page-level address mapping, a write buffer (back or fore type,
// full-trigger and read-trigger flush), greedy garbage collection and
// threshold wear-leveling — the mechanisms the paper identifies as the
// sources of irregular SSD latency (§II-A, §III-A).
//
// A Volume is driven on a virtual clock: every operation takes the
// submission instant and returns the completion instant plus the
// ground-truth cause of any delay. Media work (buffer flush, GC) occupies
// the volume's NAND planes for a computed duration; requests arriving in
// that window are delayed exactly as reads behind a flush are delayed in
// a real SSD.
package ftl

import (
	"fmt"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fsm"
	"ssdcheck/internal/nand"
	"ssdcheck/internal/simclock"
)

// BufferType distinguishes the two write-buffer organizations the paper
// extracts (§III-B3).
type BufferType uint8

const (
	// BufferBack is a double-buffered write buffer: a full buffer
	// drains in the background while a second buffer keeps absorbing
	// writes. Writes stall only on backpressure.
	BufferBack BufferType = iota
	// BufferFore is a single write buffer: the write that fills it
	// waits for the flush to finish before it is acknowledged.
	BufferFore
)

var bufferTypeNames = fsm.NewNames[BufferType]("buffertype", "ftl: unknown buffer type", "back", "fore")

// String names the buffer type as the paper's Table I does.
func (b BufferType) String() string { return bufferTypeNames.String(b) }

// Config parameterizes one volume.
type Config struct {
	Geom   nand.Geometry
	Timing nand.Timing

	// LogicalPages is the host-visible capacity in 4 KB pages. It must
	// be less than Geom.Pages(); the difference is over-provisioning
	// that GC feeds on.
	LogicalPages int

	// BufferPages is the write-buffer capacity in pages.
	BufferPages int
	// BufferType selects back (double-buffered) or fore behaviour.
	BufferType BufferType
	// ReadTriggerFlush makes any read arriving with a non-empty buffer
	// trigger (and wait for) a flush, as SSDs F and G do in Table I.
	ReadTriggerFlush bool

	// GCLowBlocks triggers garbage collection when the free-block pool
	// falls to this level at a flush boundary.
	GCLowBlocks int
	// GCReclaimBlocks is how many victims one GC invocation reclaims
	// beyond the low-water mark.
	GCReclaimBlocks int

	// WearLevelDelta is the erase-count spread that triggers a
	// wear-leveling move during GC; 0 disables wear leveling.
	WearLevelDelta int

	// SLCBlocks reserves this many blocks as an SLC cache region (half
	// density, fast programs, periodic folding); 0 disables SLC
	// caching. See slc.go.
	SLCBlocks int

	// ChargeFlush and ChargeGC control whether flush and GC occupy the
	// media for their real duration. Disabling them yields the paper's
	// prototype ablations (SSD_Others etc., Fig. 3); bookkeeping still
	// happens so behaviour stays consistent.
	ChargeFlush bool
	ChargeGC    bool

	// JitterFrac adds deterministic multiplicative noise (+-frac) to
	// service times so latency distributions are realistically fuzzy.
	JitterFrac float64

	// Seed initializes the volume's private RNG.
	Seed uint64
}

// Validate reports a descriptive error for inconsistent configuration.
func (c Config) Validate() error {
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if c.Geom.PageSize != blockdev.PageSize {
		return fmt.Errorf("ftl: page size %d unsupported, want %d", c.Geom.PageSize, blockdev.PageSize)
	}
	if c.LogicalPages <= 0 || c.LogicalPages >= c.Geom.Pages() {
		return fmt.Errorf("ftl: logical pages %d must be in (0, %d)", c.LogicalPages, c.Geom.Pages())
	}
	if c.BufferPages <= 0 {
		return fmt.Errorf("ftl: buffer must hold at least one page")
	}
	if c.GCLowBlocks < 2 || c.GCReclaimBlocks < 1 {
		return fmt.Errorf("ftl: GC watermarks too small (low=%d reclaim=%d)", c.GCLowBlocks, c.GCReclaimBlocks)
	}
	spareBlocks := c.Geom.Blocks() - (c.LogicalPages+c.Geom.PagesPerBlock-1)/c.Geom.PagesPerBlock - c.SLCBlocks
	if spareBlocks <= c.GCLowBlocks+c.GCReclaimBlocks {
		return fmt.Errorf("ftl: over-provisioning (%d spare blocks) below GC watermarks", spareBlocks)
	}
	if c.SLCBlocks < 0 {
		return fmt.Errorf("ftl: negative SLC region")
	}
	return nil
}

// Stats are cumulative volume counters, exposed for evaluation.
type Stats struct {
	Reads, Writes   uint64 // page-granularity operations
	BufferHits      uint64 // reads served from the write buffer
	Flushes         uint64 // buffer drain events
	GCs             uint64 // GC invocations
	VictimsReclaims uint64 // victim blocks erased by GC
	PagesMerged     uint64 // valid pages relocated by GC
	WearMoves       uint64 // wear-leveling relocations
	Erases          uint64 // total block erases
	Folds           uint64 // SLC-cache fold events
	PagesFolded     uint64 // pages relocated from SLC to MLC
}

type blockMeta struct {
	valid  int32 // currently valid pages
	filled int32 // pages programmed so far (write pointer)
	erases int32 // lifetime erase count
}

// Volume is one internal allocation/GC volume of a simulated SSD.
type Volume struct {
	cfg    Config
	timing nand.Timing
	planes int
	ppb    int // pages per block

	l2p    []int32 // logical page -> physical page, -1 if unmapped
	p2l    []int32 // physical page -> logical page, -1 if not valid
	blocks []blockMeta
	free   []int32 // stack of fully-erased block ids
	active int32   // block currently accepting programs
	apage  int32   // next page index within the active block

	buf []int32 // logical pages in the active buffer, FIFO

	// Buffer-membership index: one bit per logical page, set while the
	// page sits in buf. Membership is asked on every read and updated
	// on every write at a random page, so the index must stay small
	// enough (16 KB per preset device) to live in cache beside l2p when
	// many devices are served in turns; a drain clears it by zeroing
	// the word of each draining page.
	bufBits []uint64

	flushBusyUntil simclock.Time // media busy draining a flush
	gcBusyUntil    simclock.Time // media busy doing GC
	lastAt         simclock.Time // per-volume monotonicity guard

	slc slcState

	rng   *simclock.RNG
	stats Stats
}

// NewVolume builds a freshly erased volume. It returns an error if the
// configuration is invalid.
func NewVolume(cfg Config) (*Volume, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := &Volume{
		cfg:     cfg,
		timing:  cfg.Timing,
		planes:  cfg.Geom.Planes(),
		ppb:     cfg.Geom.PagesPerBlock,
		rng:     simclock.NewRNG(cfg.Seed),
		buf:     make([]int32, 0, cfg.BufferPages),
		bufBits: make([]uint64, (cfg.LogicalPages+63)/64),
	}
	v.l2p = make([]int32, cfg.LogicalPages)
	for i := range v.l2p {
		v.l2p[i] = -1
	}
	nblocks := cfg.Geom.Blocks()
	v.p2l = make([]int32, nblocks*v.ppb)
	for i := range v.p2l {
		v.p2l[i] = -1
	}
	v.blocks = make([]blockMeta, nblocks)
	v.free = make([]int32, 0, nblocks)
	for b := nblocks - 1; b >= 1; b-- {
		v.free = append(v.free, int32(b))
	}
	v.active = 0 // block 0 starts as the active block
	v.initSLC()
	return v, nil
}

// Stats returns a copy of the cumulative counters.
func (v *Volume) Stats() Stats { return v.stats }

// Config returns the volume's configuration.
func (v *Volume) Config() Config { return v.cfg }

// mediaBusyUntil is the instant the NAND array becomes idle again.
func (v *Volume) mediaBusyUntil() simclock.Time {
	return v.flushBusyUntil.Max(v.gcBusyUntil)
}

// MediaIdleAt returns the later of t and the instant all in-flight media
// work (flush drains, GC) finishes.
func (v *Volume) MediaIdleAt(t simclock.Time) simclock.Time {
	return v.mediaBusyUntil().Max(t)
}

// WouldStallReadAfterWrites reports whether a read submitted at t and
// served after pendingPages of further writes would be delayed by
// internal activity — the in-order oracle behind ideal PAS.
func (v *Volume) WouldStallReadAfterWrites(t simclock.Time, pendingPages int) bool {
	future := len(v.buf) + pendingPages
	if v.cfg.ReadTriggerFlush && future > 0 {
		return true
	}
	if future > v.cfg.BufferPages {
		return true // those writes trigger a drain the read will meet
	}
	return v.mediaBusyUntil().After(t)
}

// delayCause classifies why a request arriving at (at) must wait for the
// media, preferring the GC label when GC is part of the busy window.
func (v *Volume) delayCause(at simclock.Time) blockdev.Cause {
	if v.gcBusyUntil.After(at) {
		return blockdev.CauseGC
	}
	if v.flushBusyUntil.After(at) {
		return blockdev.CauseFlush
	}
	return blockdev.CauseNone
}

// jitter perturbs d by the configured deterministic noise fraction.
func (v *Volume) jitter(d time.Duration) time.Duration {
	if v.cfg.JitterFrac <= 0 || d <= 0 {
		return d
	}
	f := 1 + (v.rng.Float64()*2-1)*v.cfg.JitterFrac
	return time.Duration(float64(d) * f)
}

// checkMonotonic enforces that per-volume submissions do not run
// backwards in virtual time.
func (v *Volume) checkMonotonic(at simclock.Time) {
	if at.Before(v.lastAt) {
		panic(fmt.Sprintf("ftl: submission at %v precedes previous %v", at, v.lastAt))
	}
	v.lastAt = at
}

// worse returns the more severe of two causes for reporting a single
// label per request; the severity order lives in blockdev.WorseCause.
func worse(a, b blockdev.Cause) blockdev.Cause {
	return blockdev.WorseCause(a, b)
}

// ShiftFeatures changes the volume's write-buffer behavior mid-run —
// the firmware-update analog behind the feature-shift fault. Safe at
// any point between requests: the buffer capacity, type and
// read-trigger flag are consulted on every request, a shrunken capacity
// simply makes the next write flush early, and a grown one lets the
// buffer slice extend past its original allocation.
func (v *Volume) ShiftFeatures(shift blockdev.FeatureShift) bool {
	if shift.Empty() {
		return false
	}
	if shift.BufferScale > 0 && shift.BufferScale != 1 {
		pages := int(float64(v.cfg.BufferPages) * shift.BufferScale)
		if pages < 1 {
			pages = 1
		}
		v.cfg.BufferPages = pages
	}
	if shift.ToggleBufferKind {
		if v.cfg.BufferType == BufferBack {
			v.cfg.BufferType = BufferFore
		} else {
			v.cfg.BufferType = BufferBack
		}
	}
	if shift.ToggleReadTrigger {
		v.cfg.ReadTriggerFlush = !v.cfg.ReadTriggerFlush
	}
	return true
}
