// Package ssd assembles complete simulated SSD devices out of FTL
// volumes: the seven Table-I-like commodity presets A–G the paper
// evaluates on, and the five prototype ablation variants of Fig. 3.
//
// A Device routes each request to an internal volume chosen by the bit
// values of configured LBA bit indices — the mechanism SSDcheck's
// diagnosis snippets reverse-engineer — and adds deterministic
// "secondary feature" stalls (wear-leveling moves, SLC-cache folding and
// similar effects the paper's model deliberately does not cover, §VI).
package ssd

import (
	"fmt"
	"sort"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/ftl"
	"ssdcheck/internal/nand"
	"ssdcheck/internal/simclock"
)

// Config describes a whole simulated SSD.
type Config struct {
	// Name labels the device in reports ("SSD A", ...).
	Name string

	// Geom is the full-array geometry; it is split evenly across
	// internal volumes.
	Geom   nand.Geometry
	Timing nand.Timing

	// LogicalSectors is the host-visible capacity.
	LogicalSectors int64

	// VolumeBits are the sector-address bit indices whose values select
	// the internal volume (empty means a single volume). This is the
	// ground truth the diagnosis snippets must recover.
	VolumeBits []int

	// BufferBytes is each volume's write-buffer capacity.
	BufferBytes      int
	BufferType       ftl.BufferType
	ReadTriggerFlush bool

	GCLowBlocks     int
	GCReclaimBlocks int
	WearLevelDelta  int

	// SLCBlocks reserves an SLC cache region per volume (0 = none).
	SLCBlocks int

	// ChargeFlush/ChargeGC gate whether flush and GC cost media time
	// (the Fig. 3 ablations switch them off).
	ChargeFlush bool
	ChargeGC    bool

	// Optimal makes the device acknowledge everything at a fixed tiny
	// latency with no internal behaviour at all (SSD_Optimal).
	Optimal bool

	// SecondaryRate is the per-request probability of an unmodeled
	// stall of roughly SecondaryDelay; these bound the achievable HL
	// prediction accuracy exactly as the paper's secondary features do.
	SecondaryRate  float64
	SecondaryDelay time.Duration

	JitterFrac float64
	Seed       uint64
}

// Validate reports a descriptive error for an inconsistent configuration.
func (c Config) Validate() error {
	if c.Optimal {
		return nil
	}
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if c.LogicalSectors <= 0 || c.LogicalSectors%blockdev.SectorsPerPage != 0 {
		return fmt.Errorf("ssd: logical sectors %d must be a positive page multiple", c.LogicalSectors)
	}
	n := 1 << len(c.VolumeBits)
	if c.LogicalSectors%int64(n) != 0 {
		return fmt.Errorf("ssd: capacity not divisible by %d volumes", n)
	}
	for _, b := range c.VolumeBits {
		if b < 4 || int64(1)<<uint(b) >= c.LogicalSectors {
			return fmt.Errorf("ssd: volume bit %d outside sensible address range", b)
		}
	}
	return nil
}

// Device is a simulated SSD. It implements blockdev.Device (the
// black-box surface) and blockdev.TaggedDevice (the evaluation surface).
//
// A Device is not safe for concurrent use; submit requests from one
// goroutine in non-decreasing virtual-time order. See internal/fleet
// for the concurrent multi-device entry point, which assigns each
// device to exactly one worker goroutine.
type Device struct {
	cfg      Config
	vols     []*ftl.Volume
	volBits  []int // sorted ascending
	regionSz int64 // sectors per contiguous same-volume region
	rng      *simclock.RNG

	// Precomputed shift/mask segments derived once from the sorted
	// volume bits, so the per-request volume select and address
	// compaction are a handful of mask-and-shift operations instead of
	// per-bit loops (squeeze used to walk all 63 address bits).
	volSegs []gatherSeg
	sqSegs  []shiftSeg

	completions uint64
}

// gatherSeg extracts one run of contiguous volume-select bits:
// idx |= ((lba >> Shift) & Mask) << Out.
type gatherSeg struct {
	Mask  int64
	Shift uint
	Out   uint
}

// shiftSeg compacts one run of kept address bits:
// out |= (lba & Mask) >> Shift.
type shiftSeg struct {
	Mask  int64
	Shift uint
}

// buildBitSegments precomputes the volume-select and squeeze segments
// from the sorted volume bits.
func (d *Device) buildBitSegments() {
	bits := d.volBits
	if len(bits) == 0 {
		return
	}
	// Volume select: group consecutive bit indices into runs.
	for i := 0; i < len(bits); {
		j := i
		for j+1 < len(bits) && bits[j+1] == bits[j]+1 {
			j++
		}
		run := j - i + 1
		d.volSegs = append(d.volSegs, gatherSeg{
			Mask:  int64(1)<<uint(run) - 1,
			Shift: uint(bits[i]),
			Out:   uint(i),
		})
		i = j + 1
	}
	// Squeeze: the kept bit ranges between (and around) the removed
	// bits, each shifted down by the number of removed bits below it.
	// Only bits 0..62 participate, as in the original per-bit loop.
	rangeMask := func(lo, hi int) int64 { // bits [lo, hi)
		if lo >= hi {
			return 0
		}
		return (int64(1)<<uint(hi) - 1) &^ (int64(1)<<uint(lo) - 1)
	}
	lo := 0
	for i, b := range bits {
		if m := rangeMask(lo, b); m != 0 {
			d.sqSegs = append(d.sqSegs, shiftSeg{Mask: m, Shift: uint(i)})
		}
		lo = b + 1
	}
	if m := rangeMask(lo, 63); m != 0 {
		d.sqSegs = append(d.sqSegs, shiftSeg{Mask: m, Shift: uint(len(bits))})
	}
}

var (
	_ blockdev.Device         = (*Device)(nil)
	_ blockdev.TaggedDevice   = (*Device)(nil)
	_ blockdev.FeatureShifter = (*Device)(nil)
)

// ShiftFeatures applies a mid-run behavior change (a simulated firmware
// update) uniformly to every internal volume and mirrors the new
// buffer parameters into the device config, so Config() keeps
// describing the device as it now behaves. Optimal devices have no
// internal behavior to shift and report false.
func (d *Device) ShiftFeatures(shift blockdev.FeatureShift) bool {
	if d.cfg.Optimal || shift.Empty() {
		return false
	}
	applied := false
	for _, v := range d.vols {
		if v.ShiftFeatures(shift) {
			applied = true
		}
	}
	if !applied {
		return false
	}
	// All volumes share one config, so mirroring the first volume's
	// post-shift buffer parameters describes them all.
	vc := d.vols[0].Config()
	d.cfg.BufferBytes = vc.BufferPages * blockdev.PageSize
	d.cfg.BufferType = vc.BufferType
	d.cfg.ReadTriggerFlush = vc.ReadTriggerFlush
	return true
}

// New builds a device from cfg. The returned Device is not safe for
// concurrent use; see the Device type documentation and internal/fleet.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, rng: simclock.NewRNG(cfg.Seed ^ 0x55dc)}
	if cfg.Optimal {
		return d, nil
	}
	d.volBits = append(d.volBits, cfg.VolumeBits...)
	sort.Ints(d.volBits)
	d.buildBitSegments()
	if len(d.volBits) > 0 {
		d.regionSz = int64(1) << uint(d.volBits[0])
	} else {
		d.regionSz = cfg.LogicalSectors
	}
	n := 1 << len(d.volBits)
	volGeom := cfg.Geom.Split(n)
	perVolPages := int(cfg.LogicalSectors / blockdev.SectorsPerPage / int64(n))
	for i := 0; i < n; i++ {
		vcfg := ftl.Config{
			Geom:             volGeom,
			Timing:           cfg.Timing,
			LogicalPages:     perVolPages,
			BufferPages:      cfg.BufferBytes / blockdev.PageSize,
			BufferType:       cfg.BufferType,
			ReadTriggerFlush: cfg.ReadTriggerFlush,
			GCLowBlocks:      cfg.GCLowBlocks,
			GCReclaimBlocks:  cfg.GCReclaimBlocks,
			WearLevelDelta:   cfg.WearLevelDelta,
			SLCBlocks:        cfg.SLCBlocks,
			ChargeFlush:      cfg.ChargeFlush,
			ChargeGC:         cfg.ChargeGC,
			JitterFrac:       cfg.JitterFrac,
			Seed:             cfg.Seed + uint64(i)*0x9e37,
		}
		v, err := ftl.NewVolume(vcfg)
		if err != nil {
			return nil, fmt.Errorf("ssd %s volume %d: %w", cfg.Name, i, err)
		}
		d.vols = append(d.vols, v)
	}
	return d, nil
}

// MustNew is New for presets known valid; it panics on error.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the device label.
func (d *Device) Name() string { return d.cfg.Name }

// CapacitySectors implements blockdev.Device.
func (d *Device) CapacitySectors() int64 { return d.cfg.LogicalSectors }

// Volumes returns the number of internal volumes.
func (d *Device) Volumes() int {
	if d.cfg.Optimal {
		return 1
	}
	return len(d.vols)
}

// VolumeStats returns cumulative counters of volume i.
func (d *Device) VolumeStats(i int) ftl.Stats { return d.vols[i].Stats() }

// Completions returns how many requests the device has processed.
func (d *Device) Completions() uint64 { return d.completions }

// volumeOf returns the internal volume index for a sector address: the
// gathered bit values at the configured indices.
func (d *Device) volumeOf(lba int64) int {
	idx := 0
	for _, s := range d.volSegs {
		idx |= int((lba>>s.Shift)&s.Mask) << s.Out
	}
	return idx
}

// squeeze removes the volume-selecting bits from a sector address,
// compacting the remaining bits, so each volume sees a dense local
// address space. The segments are precomputed in buildBitSegments.
func (d *Device) squeeze(lba int64) int64 {
	if len(d.sqSegs) == 0 {
		return lba
	}
	var out int64
	for _, s := range d.sqSegs {
		out |= (lba & s.Mask) >> s.Shift
	}
	return out
}

// Submit implements blockdev.Device.
func (d *Device) Submit(req blockdev.Request, at simclock.Time) simclock.Time {
	done, _ := d.SubmitTagged(req, at)
	return done
}

// SubmitTagged implements blockdev.TaggedDevice: it processes the request
// and also returns the ground-truth cause of any delay, for evaluation.
func (d *Device) SubmitTagged(req blockdev.Request, at simclock.Time) (simclock.Time, blockdev.Cause) {
	d.completions++
	if d.cfg.Optimal {
		// Even with every internal operation removed, a request still
		// crosses the host interface and firmware (paper Fig. 3's
		// SSD_Optimal is a real FPGA device, not a zero-cost stub).
		return at.Add(d.cfg.Timing.BufferAck), blockdev.CauseNone
	}
	if req.Sectors <= 0 {
		req.Sectors = 1
	}
	end := req.LBA + int64(req.Sectors)
	if end > d.cfg.LogicalSectors {
		end = d.cfg.LogicalSectors
	}

	done := at
	cause := blockdev.CauseNone
	single := len(d.vols) == 1
	// Walk the request in same-volume regions; almost every request is
	// a single region, multi-region only at 2^minBit boundaries.
	for lba := req.LBA; lba < end; {
		var vol *ftl.Volume
		var local int64
		regionEnd := end
		if single {
			// One volume: the whole request is one region and the
			// local address space is the global one.
			vol = d.vols[0]
			local = lba
		} else {
			// regionSz is 1<<minVolumeBit, so the next region
			// boundary is a mask away (no division on the hot path).
			if re := (lba | (d.regionSz - 1)) + 1; re < end {
				regionEnd = re
			}
			vol = d.vols[d.volumeOf(lba)]
			local = d.squeeze(lba)
		}
		firstPage := local / blockdev.SectorsPerPage
		lastPage := (local + (regionEnd - lba) - 1) / blockdev.SectorsPerPage
		pages := int(lastPage - firstPage + 1)

		var pd simclock.Time
		var pc blockdev.Cause
		switch req.Op {
		case blockdev.Read:
			pd, pc = vol.Read(int32(firstPage), pages, at)
		case blockdev.Write:
			pd, pc = vol.Write(int32(firstPage), pages, at)
		case blockdev.Trim:
			vol.Trim(int32(firstPage), pages)
			pd, pc = at.Add(5*simclock.Microsecond), blockdev.CauseNone
		default:
			panic(fmt.Sprintf("ssd: unknown op %v", req.Op))
		}
		done = done.Max(pd)
		cause = worseCause(cause, pc)
		lba = regionEnd
	}

	// Secondary features: rare, unmodeled stalls.
	if d.cfg.SecondaryRate > 0 && req.Op != blockdev.Trim &&
		d.rng.Float64() < d.cfg.SecondaryRate {
		extra := time.Duration(float64(d.cfg.SecondaryDelay) * (0.5 + d.rng.Float64()))
		done = done.Add(extra)
		cause = worseCause(cause, blockdev.CauseSecondary)
	}
	return done, cause
}

// worseCause mirrors the FTL's severity ordering at device level; the
// single source of truth is blockdev.WorseCause.
func worseCause(a, b blockdev.Cause) blockdev.Cause {
	return blockdev.WorseCause(a, b)
}

// WouldStallReadAfterWrites reports whether a read of lba submitted at t,
// served after pendingPages more writes to its volume, would be delayed
// by internal activity — the in-order oracle behind the ideal-PAS bound
// of Fig. 14. Evaluation only.
func (d *Device) WouldStallReadAfterWrites(lba int64, at simclock.Time, pendingPages int) bool {
	if d.cfg.Optimal {
		return false
	}
	return d.vols[d.volumeOf(lba)].WouldStallReadAfterWrites(at, pendingPages)
}

// Purge TRIMs the whole device and waits for all in-flight media work to
// drain — the SNIA-style reset experiments apply before preconditioning.
// It returns the instant the device is fully idle.
func (d *Device) Purge(at simclock.Time) simclock.Time {
	if d.cfg.Optimal {
		return at
	}
	done := d.Submit(blockdev.Request{Op: blockdev.Trim, LBA: 0, Sectors: int(d.cfg.LogicalSectors)}, at)
	for _, v := range d.vols {
		done = done.Max(v.MediaIdleAt(at))
	}
	return done
}
