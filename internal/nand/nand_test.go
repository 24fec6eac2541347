package nand

import (
	"testing"
	"testing/quick"
	"time"
)

func proto() Geometry {
	// The paper's prototype: 4 channels, 4 chips/channel, 2 planes
	// (folded as 1 die × 2 planes), i.e. 32 planes.
	return Geometry{
		Channels: 4, ChipsPerChannel: 4, DiesPerChip: 1, PlanesPerDie: 2,
		BlocksPerPlane: 64, PagesPerBlock: 128, PageSize: 4096,
	}
}

func TestGeometryCounts(t *testing.T) {
	g := proto()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Planes() != 32 {
		t.Fatalf("planes=%d", g.Planes())
	}
	if g.Blocks() != 32*64 {
		t.Fatalf("blocks=%d", g.Blocks())
	}
	if g.Pages() != 32*64*128 {
		t.Fatalf("pages=%d", g.Pages())
	}
	if g.CapacityBytes() != int64(32*64*128)*4096 {
		t.Fatalf("capacity=%d", g.CapacityBytes())
	}
}

func TestGeometryValidate(t *testing.T) {
	g := proto()
	g.PagesPerBlock = 0
	if g.Validate() == nil {
		t.Fatal("zero pages per block should be invalid")
	}
}

func TestGeometrySplit(t *testing.T) {
	g := proto()
	half := g.Split(2)
	if half.Planes() != 16 {
		t.Fatalf("half planes=%d", half.Planes())
	}
	quarter := g.Split(4)
	if quarter.Planes() != 8 {
		t.Fatalf("quarter planes=%d", quarter.Planes())
	}
	if g.Split(1) != g {
		t.Fatal("split 1 should be identity")
	}
	if half.CapacityBytes()*2 != g.CapacityBytes() {
		t.Fatal("split must preserve total capacity")
	}
}

func TestGeometrySplitPanicsOnOdd(t *testing.T) {
	g := proto()
	g.Channels, g.ChipsPerChannel, g.PlanesPerDie = 3, 1, 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic splitting 3 planes 2 ways")
		}
	}()
	g.Split(2)
}

func TestDefaultTimingSanity(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadPage != 60*time.Microsecond || tm.ProgramPage != 1000*time.Microsecond || tm.EraseBlock != 3500*time.Microsecond {
		t.Fatalf("paper timings not respected: %+v", tm)
	}
	// NL read of one page should land well under the 250us threshold.
	if c := tm.ReadCost(1, 32); c > 250*time.Microsecond {
		t.Fatalf("single-page read cost %v exceeds NL threshold", c)
	}
}

func TestFlushCost(t *testing.T) {
	tm := DefaultTiming()
	// 62 pages (248KB buffer) over 32 planes: two program rounds.
	c := tm.FlushCost(62, 32)
	if c < 2*tm.ProgramPage || c > 2*tm.ProgramPage+time.Duration(62)*tm.Transfer {
		t.Fatalf("flush cost %v outside expected band", c)
	}
	if tm.FlushCost(0, 32) != 0 {
		t.Fatal("empty flush should be free")
	}
	// Halving planes should not decrease the cost.
	if tm.FlushCost(62, 16) < c {
		t.Fatal("fewer planes must not flush faster")
	}
}

func TestGCCostMonotone(t *testing.T) {
	tm := DefaultTiming()
	if tm.GCCost(0) != tm.EraseBlock {
		t.Fatalf("zero-valid GC should cost exactly one erase, got %v", tm.GCCost(0))
	}
	prev := time.Duration(0)
	for v := 0; v <= 128; v += 8 {
		c := tm.GCCost(v)
		if c < prev {
			t.Fatalf("GC cost must be nondecreasing in valid pages: %v < %v at v=%d", c, prev, v)
		}
		prev = c
	}
	// A full-valid victim should take tens of milliseconds — the
	// magnitude the paper attributes to GC.
	if c := tm.GCCost(128); c < 10*time.Millisecond {
		t.Fatalf("full GC suspiciously cheap: %v", c)
	}
}

func TestCostPropertiesQuick(t *testing.T) {
	tm := DefaultTiming()
	f := func(pages, planes uint8) bool {
		p := int(pages%200) + 1
		pl := int(planes%64) + 1
		read := tm.ReadCost(p, pl)
		flush := tm.FlushCost(p, pl)
		return read > 0 && flush > 0 &&
			tm.ReadCost(p+1, pl) >= read &&
			tm.FlushCost(p+1, pl) >= flush
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// CapacityBytes returns the raw capacity in bytes.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.Pages()) * int64(g.PageSize)
}
