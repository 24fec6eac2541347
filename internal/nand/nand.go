// Package nand models the geometry and operation timings of the NAND
// flash array inside a simulated SSD. It answers cost questions — how
// long does a page read, a buffer flush striped over this many planes, a
// GC merge, an erase take — and leaves occupancy bookkeeping to the FTL.
//
// Default timings follow the paper (§II-A): read ~60 µs, program
// ~1000 µs, erase ~3500 µs per block.
package nand

import (
	"fmt"
	"time"
)

// Geometry describes a flash array (or a volume's share of one).
type Geometry struct {
	Channels        int // independent channels
	ChipsPerChannel int // chips on each channel
	DiesPerChip     int // dies per chip
	PlanesPerDie    int // planes per die; planes are the parallel unit
	BlocksPerPlane  int // erase blocks per plane
	PagesPerBlock   int // program/read pages per block
	PageSize        int // bytes per page
}

// Validate reports a descriptive error if any dimension is non-positive.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.ChipsPerChannel <= 0 || g.DiesPerChip <= 0 ||
		g.PlanesPerDie <= 0 || g.BlocksPerPlane <= 0 || g.PagesPerBlock <= 0 ||
		g.PageSize <= 0 {
		return fmt.Errorf("nand: invalid geometry %+v", g)
	}
	return nil
}

// Planes returns the total number of planes — the degree of internal
// write parallelism.
func (g Geometry) Planes() int {
	return g.Channels * g.ChipsPerChannel * g.DiesPerChip * g.PlanesPerDie
}

// Blocks returns the total number of erase blocks.
func (g Geometry) Blocks() int { return g.Planes() * g.BlocksPerPlane }

// Pages returns the total number of physical pages.
func (g Geometry) Pages() int { return g.Blocks() * g.PagesPerBlock }

// Split returns the geometry of one of n equal shares of g, used when an
// SSD partitions its array into n internal volumes. It panics if the
// array cannot be divided evenly at some level; presets are constructed
// so it always can.
func (g Geometry) Split(n int) Geometry {
	out := g
	for _, f := range []*int{&out.Channels, &out.ChipsPerChannel, &out.DiesPerChip, &out.PlanesPerDie} {
		for n > 1 && *f%2 == 0 {
			*f /= 2
			n /= 2
		}
	}
	if n != 1 {
		panic(fmt.Sprintf("nand: cannot split geometry into equal volumes, %d ways remain", n))
	}
	return out
}

// Timing holds per-operation durations.
type Timing struct {
	ReadPage    time.Duration // NAND array read of one page
	ProgramPage time.Duration // NAND program of one page
	ProgramSLC  time.Duration // program of one page in SLC mode (0 = no SLC)
	EraseBlock  time.Duration // block erase
	Transfer    time.Duration // channel transfer of one page
	Firmware    time.Duration // fixed firmware/controller overhead per request
	BufferAck   time.Duration // acknowledging a buffered write
	BufferRead  time.Duration // serving a read straight from the write buffer
	// GCPipeline is the effective overlap factor of GC merge traffic:
	// valid-page copies proceed roughly GCPipeline at a time across
	// planes and the channel.
	GCPipeline int
}

// DefaultTiming returns the paper's NAND timings with controller-side
// constants chosen to land normal-latency reads near 95 µs and buffered
// writes near 30 µs (SATA-SSD-like, and comfortably under the paper's
// 250 µs NL/HL threshold).
func DefaultTiming() Timing {
	return Timing{
		ReadPage:    60 * time.Microsecond,
		ProgramPage: 1000 * time.Microsecond,
		ProgramSLC:  300 * time.Microsecond,
		EraseBlock:  3500 * time.Microsecond,
		Transfer:    8 * time.Microsecond, // ~500 MB/s channel, SATA-class
		Firmware:    10 * time.Microsecond,
		BufferAck:   20 * time.Microsecond,
		BufferRead:  15 * time.Microsecond,
		GCPipeline:  8,
	}
}

// ReadCost returns the service time of an uninterfered read of pages
// pages from an array with planes planes: one array read latency plus
// serialized channel transfers, plus firmware overhead. Parallel plane
// reads overlap the array portion.
func (t Timing) ReadCost(pages, planes int) time.Duration {
	if pages <= 0 {
		pages = 1
	}
	rounds := (pages + planes - 1) / planes
	return t.Firmware + time.Duration(rounds)*t.ReadPage + time.Duration(pages)*t.Transfer
}

// FlushCost returns how long draining pages buffered pages to the NAND
// takes when striped across planes planes.
func (t Timing) FlushCost(pages, planes int) time.Duration {
	return t.flushCost(pages, planes, t.ProgramPage)
}

// FlushCostSLC is FlushCost with the pages programmed in SLC mode.
func (t Timing) FlushCostSLC(pages, planes int) time.Duration {
	prog := t.ProgramSLC
	if prog == 0 {
		prog = t.ProgramPage
	}
	return t.flushCost(pages, planes, prog)
}

func (t Timing) flushCost(pages, planes int, prog time.Duration) time.Duration {
	if pages <= 0 {
		return 0
	}
	rounds := (pages + planes - 1) / planes
	return time.Duration(rounds)*prog + time.Duration(pages)*t.Transfer/time.Duration(planes)
}

// MergeCost returns the cost of relocating valid valid pages during GC.
func (t Timing) MergeCost(valid int) time.Duration {
	if valid <= 0 {
		return 0
	}
	pipe := t.GCPipeline
	if pipe < 1 {
		pipe = 1
	}
	per := t.ReadPage + t.ProgramPage
	return time.Duration((valid+pipe-1)/pipe) * per
}

// GCCost returns the full cost of one victim reclamation: merging valid
// valid pages then erasing the block.
func (t Timing) GCCost(valid int) time.Duration {
	return t.MergeCost(valid) + t.EraseBlock
}
