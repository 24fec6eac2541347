package ftl

import (
	"testing"
	"testing/quick"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/nand"
	"ssdcheck/internal/simclock"
)

// testConfig returns a small, fast volume: 32 planes, 256 blocks of 32
// pages (32 MB raw), 24 MB logical, 16-page (64 KB) buffer.
func testConfig() Config {
	return Config{
		Geom: nand.Geometry{
			Channels: 4, ChipsPerChannel: 4, DiesPerChip: 1, PlanesPerDie: 2,
			BlocksPerPlane: 8, PagesPerBlock: 32, PageSize: 4096,
		},
		Timing:          nand.DefaultTiming(),
		LogicalPages:    6144,
		BufferPages:     16,
		BufferType:      BufferBack,
		GCLowBlocks:     4,
		GCReclaimBlocks: 4,
		ChargeFlush:     true,
		ChargeGC:        true,
		JitterFrac:      0, // deterministic latencies for exact assertions
		Seed:            1,
	}
}

func newTestVolume(t *testing.T, mut func(*Config)) *Volume {
	t.Helper()
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	v, err := NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBufferTypeString(t *testing.T) {
	for b, want := range map[BufferType]string{
		BufferBack: "back", BufferFore: "fore", BufferType(2): "buffertype(2)",
	} {
		if got := b.String(); got != want {
			t.Errorf("BufferType(%d).String() = %q, want %q", b, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.LogicalPages = 0 },
		func(c *Config) { c.LogicalPages = c.Geom.Pages() },
		func(c *Config) { c.BufferPages = 0 },
		func(c *Config) { c.GCLowBlocks = 0 },
		func(c *Config) { c.Geom.PageSize = 512 },
		func(c *Config) { c.LogicalPages = c.Geom.Pages() - 10 }, // no OP headroom
	}
	for i, mut := range bad {
		cfg := testConfig()
		mut(&cfg)
		if _, err := NewVolume(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewVolume(testConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestBufferedWriteIsFast(t *testing.T) {
	v := newTestVolume(t, nil)
	done, cause := v.Write(0, 1, 0)
	if cause != blockdev.CauseNone {
		t.Fatalf("first write cause=%v", cause)
	}
	if lat := done.Sub(0); lat != v.timing.BufferAck {
		t.Fatalf("buffered write latency %v, want %v", lat, v.timing.BufferAck)
	}
}

func TestReadFromNANDLatency(t *testing.T) {
	v := newTestVolume(t, nil)
	// Write one page and push it to NAND with an explicit flush.
	v.Write(5, 1, 0)
	idle := v.FlushNow(1000)
	done, cause := v.Read(5, 1, idle)
	if cause != blockdev.CauseNone {
		t.Fatalf("read cause=%v", cause)
	}
	want := v.timing.ReadCost(1, v.planes)
	if lat := done.Sub(idle); lat != want {
		t.Fatalf("NAND read latency %v, want %v", lat, want)
	}
}

func TestBufferHitRead(t *testing.T) {
	v := newTestVolume(t, nil)
	v.Write(7, 1, 0)
	done, cause := v.Read(7, 1, 100)
	if cause != blockdev.CauseNone {
		t.Fatalf("buffer-hit cause=%v", cause)
	}
	if lat := done.Sub(100); lat != v.timing.BufferRead {
		t.Fatalf("buffer-hit latency %v, want %v", lat, v.timing.BufferRead)
	}
	if v.Stats().BufferHits != 1 {
		t.Fatalf("buffer hits=%d", v.Stats().BufferHits)
	}
}

func TestReadDelayedByFlush(t *testing.T) {
	v := newTestVolume(t, nil)
	t0 := simclock.Time(0)
	// Fill the buffer; the 17th page triggers a background flush.
	for i := 0; i < 17; i++ {
		t0, _ = v.Write(int32(i%4+100), 1, t0)
	}
	if v.Stats().Flushes != 1 {
		t.Fatalf("flushes=%d, want 1", v.Stats().Flushes)
	}
	// A read to a non-buffered page during the drain is delayed.
	done, cause := v.Read(500, 1, t0)
	if cause != blockdev.CauseFlush {
		t.Fatalf("cause=%v, want flush", cause)
	}
	if lat := done.Sub(t0); lat < 500*time.Microsecond {
		t.Fatalf("flush-delayed read only took %v", lat)
	}
}

func TestBackBufferBackpressure(t *testing.T) {
	v := newTestVolume(t, nil)
	t0 := simclock.Time(0)
	sawBackpressure := false
	// Hammer writes back-to-back; the second flush cannot start until
	// the first drain ends, so some write stalls.
	for i := 0; i < 64; i++ {
		var cause blockdev.Cause
		t0, cause = v.Write(int32(i), 1, t0)
		if cause == blockdev.CauseBackpressure {
			sawBackpressure = true
		}
	}
	if !sawBackpressure {
		t.Fatal("continuous writes should hit backpressure")
	}
}

func TestForeBufferTriggeringWriteWaits(t *testing.T) {
	v := newTestVolume(t, func(c *Config) { c.BufferType = BufferFore })
	t0 := simclock.Time(0)
	var slow int
	var slowLat time.Duration
	for i := 0; i < 33; i++ {
		done, cause := v.Write(int32(i), 1, t0)
		lat := done.Sub(t0)
		if cause == blockdev.CauseFlush {
			slow++
			slowLat = lat
		}
		t0 = done
	}
	if slow != 2 { // 16-page buffer: writes 17 and 33 trigger
		t.Fatalf("fore flush waits=%d, want 2", slow)
	}
	if slowLat < v.timing.ProgramPage {
		t.Fatalf("fore flush wait %v shorter than a program", slowLat)
	}
}

func TestReadTriggerFlush(t *testing.T) {
	v := newTestVolume(t, func(c *Config) {
		c.BufferType = BufferFore
		c.ReadTriggerFlush = true
	})
	done, _ := v.Write(3, 1, 0)
	rdone, rcause := v.Read(999, 1, done)
	if rcause != blockdev.CauseReadTrigger {
		t.Fatalf("read cause=%v, want read-trigger", rcause)
	}
	if lat := rdone.Sub(done); lat < v.timing.ProgramPage {
		t.Fatalf("read-trigger latency %v too short", lat)
	}
	// With an empty buffer the next read is normal.
	_, c2 := v.Read(999, 1, rdone)
	if c2 != blockdev.CauseNone {
		t.Fatalf("post-flush read cause=%v", c2)
	}
}

// fillVolume preconditions the volume with random writes of count pages
// and returns the time cursor.
func fillVolume(v *Volume, rng *simclock.RNG, count int, t0 simclock.Time) simclock.Time {
	for i := 0; i < count; i++ {
		lpn := int32(rng.Intn(v.cfg.LogicalPages))
		t0, _ = v.Write(lpn, 1, t0)
	}
	return t0
}

func TestGCTriggersAndReclaims(t *testing.T) {
	v := newTestVolume(t, nil)
	rng := simclock.NewRNG(9)
	fillVolume(v, rng, 3*v.cfg.LogicalPages, 0)
	st := v.Stats()
	if st.GCs == 0 {
		t.Fatal("sustained random writes never triggered GC")
	}
	if st.VictimsReclaims < st.GCs {
		t.Fatalf("reclaims=%d < GCs=%d", st.VictimsReclaims, st.GCs)
	}
	if v.FreeBlocks() < v.cfg.GCLowBlocks {
		t.Fatalf("free pool %d below low-water %d", v.FreeBlocks(), v.cfg.GCLowBlocks)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCDelaysObservable(t *testing.T) {
	v := newTestVolume(t, nil)
	rng := simclock.NewRNG(10)
	t0 := fillVolume(v, rng, 3*v.cfg.LogicalPages, 0)
	// Keep writing and look for a GC-caused stall.
	sawGC := false
	var gcLat time.Duration
	for i := 0; i < 4*v.cfg.LogicalPages; i++ {
		lpn := int32(rng.Intn(v.cfg.LogicalPages))
		done, cause := v.Write(lpn, 1, t0)
		if cause == blockdev.CauseGC {
			sawGC = true
			gcLat = done.Sub(t0)
		}
		t0 = done
	}
	if !sawGC {
		t.Fatal("no write ever observed a GC delay")
	}
	if gcLat < 2*time.Millisecond {
		t.Fatalf("GC-delayed write only %v", gcLat)
	}
}

func TestSelfInvalidationMakesGCRegular(t *testing.T) {
	// The Fixed diagnosis pattern (paper §III-B2): writing one address
	// repeatedly self-invalidates, victims carry no valid pages, and
	// GC intervals (in writes) become near-constant.
	v := newTestVolume(t, nil)
	t0 := simclock.Time(0)
	var intervals []int
	writesSinceGC := 0
	lastGCs := uint64(0)
	for i := 0; i < 20*v.cfg.LogicalPages; i++ {
		t0, _ = v.Write(42, 1, t0)
		writesSinceGC++
		if g := v.Stats().GCs; g != lastGCs {
			if lastGCs > 0 {
				intervals = append(intervals, writesSinceGC)
			}
			lastGCs = g
			writesSinceGC = 0
		}
	}
	if len(intervals) < 5 {
		t.Fatalf("too few GCs observed: %d", len(intervals))
	}
	min, max := intervals[0], intervals[0]
	for _, iv := range intervals {
		if iv < min {
			min = iv
		}
		if iv > max {
			max = iv
		}
	}
	// Intervals land in the band set by the GC reclaim target and its
	// deliberate jitter (reclaim .. 1.5*reclaim blocks), far tighter
	// than the merge-dependent spread of random-write GC.
	ppb := v.cfg.Geom.PagesPerBlock
	lo := v.cfg.GCReclaimBlocks * ppb
	hi := (v.cfg.GCReclaimBlocks + v.cfg.GCReclaimBlocks/2 + 1) * ppb
	if min < lo-v.cfg.BufferPages || max > hi+2*v.cfg.BufferPages {
		t.Fatalf("self-invalidation intervals outside [%d,%d]: min=%d max=%d", lo, hi, min, max)
	}
	if v.Stats().PagesMerged != 0 {
		t.Fatalf("self-invalidation should not merge pages, merged=%d", v.Stats().PagesMerged)
	}
}

func TestWearLevelingBoundsSpread(t *testing.T) {
	v := newTestVolume(t, func(c *Config) { c.WearLevelDelta = 8 })
	t0 := simclock.Time(0)
	// Fixed-address writes concentrate erases without wear leveling.
	for i := 0; i < 30*v.cfg.LogicalPages; i++ {
		t0, _ = v.Write(7, 1, t0)
	}
	if v.Stats().WearMoves == 0 {
		t.Fatal("wear leveling never engaged")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimInvalidates(t *testing.T) {
	v := newTestVolume(t, nil)
	v.Write(10, 4, 0)
	idle := v.FlushNow(1000)
	v.Trim(10, 4)
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Trimmed pages are unmapped.
	for i := int32(10); i < 14; i++ {
		if v.l2p[i] != -1 {
			t.Fatalf("lpn %d still mapped after trim", i)
		}
	}
	_ = idle
}

func TestTrimDropsBufferedCopies(t *testing.T) {
	v := newTestVolume(t, nil)
	v.Write(20, 2, 0)
	v.Trim(20, 2)
	if v.BufferedPages() != 0 {
		t.Fatalf("buffered pages=%d after trim", v.BufferedPages())
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChargeFlagsAblation(t *testing.T) {
	// With both charges off (SSD_Others), no request should ever be
	// slow, but bookkeeping still runs.
	v := newTestVolume(t, func(c *Config) { c.ChargeFlush = false; c.ChargeGC = false })
	rng := simclock.NewRNG(3)
	t0 := simclock.Time(0)
	for i := 0; i < 2*v.cfg.LogicalPages; i++ {
		lpn := int32(rng.Intn(v.cfg.LogicalPages))
		done, _ := v.Write(lpn, 1, t0)
		if done.Sub(t0) > 250*time.Microsecond {
			t.Fatalf("uncharged volume produced HL write: %v", done.Sub(t0))
		}
		t0 = done
	}
	if v.Stats().GCs == 0 {
		t.Fatal("bookkeeping GC should still run with charges off")
	}
}

func TestMonotonicSubmissionEnforced(t *testing.T) {
	v := newTestVolume(t, nil)
	v.Write(0, 1, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("regressing submission time should panic")
		}
	}()
	v.Write(1, 1, 500)
}

func TestJitterBoundsLatency(t *testing.T) {
	v := newTestVolume(t, func(c *Config) { c.JitterFrac = 0.05; c.Seed = 77 })
	base := v.timing.BufferAck
	t0 := simclock.Time(0)
	for i := 0; i < 10; i++ {
		done, _ := v.Write(int32(i), 1, t0)
		lat := done.Sub(t0)
		lo := time.Duration(float64(base) * 0.94)
		hi := time.Duration(float64(base) * 1.06)
		if lat < lo || lat > hi {
			t.Fatalf("jittered latency %v outside [%v,%v]", lat, lo, hi)
		}
		t0 = done
	}
}

// TestInvariantsUnderRandomOps is the core property test: any random
// sequence of writes, reads and trims leaves the mapping consistent.
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := simclock.NewRNG(seed)
		cfg := testConfig()
		cfg.JitterFrac = 0.05
		cfg.Seed = seed
		cfg.BufferType = BufferType(rng.Intn(2))
		cfg.ReadTriggerFlush = rng.Uint64()&1 == 1
		cfg.WearLevelDelta = rng.Intn(2) * 10
		v, err := NewVolume(cfg)
		if err != nil {
			return false
		}
		t0 := simclock.Time(0)
		for i := 0; i < 4000; i++ {
			lpn := int32(rng.Intn(cfg.LogicalPages))
			pages := 1 + rng.Intn(8)
			var done simclock.Time
			switch rng.Intn(10) {
			case 0:
				v.Trim(lpn, pages)
				done = t0
			case 1, 2, 3:
				done, _ = v.Read(lpn, pages, t0)
			default:
				done, _ = v.Write(lpn, pages, t0)
			}
			t0 = done.Max(t0)
		}
		return v.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestSustainedThroughputBoundedByDrain(t *testing.T) {
	// Random sustained 4KB writes cannot exceed the NAND drain rate of
	// the volume: planes * pageSize / tProg.
	v := newTestVolume(t, nil)
	rng := simclock.NewRNG(5)
	const n = 40000
	var t0 simclock.Time
	t0 = fillVolume(v, rng, n, t0)
	gbWritten := float64(n) * 4096
	elapsed := t0.Seconds()
	mbps := gbWritten / elapsed / 1e6
	drain := float64(v.planes) * 4096 / v.timing.ProgramPage.Seconds() / 1e6
	if mbps > drain*1.15 {
		t.Fatalf("sustained write %v MB/s exceeds drain rate %v MB/s", mbps, drain)
	}
	// Steady-state random writes sit well below the drain rate because
	// GC write amplification eats media time — the realistic "random
	// write cliff" of commodity SSDs — but must stay nonzero and sane.
	if mbps < drain*0.02 {
		t.Fatalf("sustained write %v MB/s collapsed (drain %v MB/s)", mbps, drain)
	}
}

func TestSLCCacheAbsorbsFlushesFast(t *testing.T) {
	v := newTestVolume(t, func(c *Config) { c.SLCBlocks = 4 })
	if v.SLCCachePages() != 4*16 { // 32-page blocks, half density
		t.Fatalf("SLC capacity=%d pages", v.SLCCachePages())
	}
	// One full buffer drains into SLC: the drain is far cheaper than an
	// MLC flush.
	t0 := simclock.Time(0)
	for i := 0; i < 16; i++ {
		t0, _ = v.Write(int32(i), 1, t0)
	}
	idle := v.FlushNow(t0)
	drain := idle.Sub(t0)
	mlc := v.timing.FlushCost(16, v.planes)
	if drain >= mlc {
		t.Fatalf("SLC drain %v not faster than MLC flush %v", drain, mlc)
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSLCFoldIsPeriodicStall(t *testing.T) {
	v := newTestVolume(t, func(c *Config) { c.SLCBlocks = 4 })
	rng := simclock.NewRNG(3)
	t0 := simclock.Time(0)
	var stallIdx []int
	for i := 0; i < 4000; i++ {
		lpn := int32(rng.Intn(v.cfg.LogicalPages))
		done, _ := v.Write(lpn, 1, t0)
		// Folds surface as multi-millisecond write stalls
		// (backpressure behind the fold).
		if done.Sub(t0) > 2*time.Millisecond {
			stallIdx = append(stallIdx, i)
		}
		t0 = done
	}
	if v.Stats().Folds < 3 {
		t.Fatalf("folds=%d, expected several over 4000 writes", v.Stats().Folds)
	}
	if len(stallIdx) < 3 {
		t.Fatalf("fold stalls not observable: %d", len(stallIdx))
	}
	// The stall period tracks the SLC capacity.
	gaps := 0
	sum := 0
	for i := 1; i < len(stallIdx); i++ {
		sum += stallIdx[i] - stallIdx[i-1]
		gaps++
	}
	period := sum / gaps
	if period < v.SLCCachePages()/2 || period > v.SLCCachePages()*2 {
		t.Fatalf("fold period %d writes vs SLC capacity %d pages", period, v.SLCCachePages())
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSLCInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := simclock.NewRNG(seed)
		cfg := testConfig()
		cfg.Seed = seed
		cfg.SLCBlocks = 2 + rng.Intn(4)
		v, err := NewVolume(cfg)
		if err != nil {
			return false
		}
		t0 := simclock.Time(0)
		for i := 0; i < 3000; i++ {
			lpn := int32(rng.Intn(cfg.LogicalPages))
			pages := 1 + rng.Intn(4)
			var done simclock.Time
			if rng.Intn(4) == 0 {
				done, _ = v.Read(lpn, pages, t0)
			} else {
				done, _ = v.Write(lpn, pages, t0)
			}
			t0 = done.Max(t0)
		}
		return v.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// FreeBlocks returns the current size of the free-block pool.
func (v *Volume) FreeBlocks() int { return len(v.free) }

// BufferedPages returns how many pages sit in the active write buffer.
func (v *Volume) BufferedPages() int { return len(v.buf) }

// SLCCachePages returns the cache capacity in pages (0 if disabled).
func (v *Volume) SLCCachePages() int {
	if !v.slc.enabled {
		return 0
	}
	return len(v.slc.blocks) * int(v.slc.usable)
}

// FlushNow forces a buffer drain at instant t and returns when the media
// goes idle.
func (v *Volume) FlushNow(t simclock.Time) simclock.Time {
	v.checkMonotonic(t)
	v.startFlush(t)
	return v.mediaBusyUntil().Max(t)
}
