package ssd

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

func TestAllPresetsConstruct(t *testing.T) {
	for _, d := range AllPresets(1) {
		if d.CapacitySectors() != logicalSectors512MB {
			t.Errorf("%s capacity=%d", d.Name(), d.CapacitySectors())
		}
		done := d.Submit(blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}, 0)
		if done <= 0 {
			t.Errorf("%s write did not advance time", d.Name())
		}
	}
}

func TestPresetVolumeCounts(t *testing.T) {
	cases := map[string]int{"A": 1, "B": 1, "C": 1, "D": 2, "E": 4, "F": 1, "G": 1}
	for name, want := range cases {
		cfg, err := Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := MustNew(cfg)
		if got := d.Volumes(); got != want {
			t.Errorf("SSD %s volumes=%d want %d", name, got, want)
		}
	}
	if _, err := Preset("Z", 1); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestVolumeRouting(t *testing.T) {
	d := MustNew(PresetE(3)) // volumes on bits 17, 18
	cases := []struct {
		lba  int64
		want int
	}{
		{0, 0},
		{1 << 17, 1},
		{1 << 18, 2},
		{1<<17 | 1<<18, 3},
		{1 << 19, 0}, // bit 19 is not a volume bit
	}
	for _, c := range cases {
		if got := d.volumeOf(c.lba); got != c.want {
			t.Errorf("volumeOf(%#x)=%d want %d", c.lba, got, c.want)
		}
	}
}

func TestSqueezeDense(t *testing.T) {
	d := MustNew(PresetD(3)) // volume bit 17
	// Consecutive same-volume regions must squeeze to consecutive
	// local regions.
	if got := d.squeeze(0); got != 0 {
		t.Fatalf("squeeze(0)=%d", got)
	}
	if got := d.squeeze(2 << 17); got != 1<<17 {
		t.Fatalf("squeeze(2<<17)=%#x want %#x", got, 1<<17)
	}
	// Low bits pass through.
	if got := d.squeeze(123); got != 123 {
		t.Fatalf("squeeze(123)=%d", got)
	}
	// The volume bit itself vanishes.
	if got := d.squeeze(1 << 17); got != 0 {
		t.Fatalf("squeeze(1<<17)=%d want 0", got)
	}
}

func TestSqueezeBijectivePerVolume(t *testing.T) {
	d := MustNew(PresetE(4))
	f := func(a, b uint32) bool {
		la := int64(a) % d.CapacitySectors()
		lb := int64(b) % d.CapacitySectors()
		if la == lb {
			return true
		}
		// Two distinct addresses in the same volume must squeeze to
		// distinct local addresses.
		if d.volumeOf(la) == d.volumeOf(lb) && d.squeeze(la) == d.squeeze(lb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestVolumesIsolated(t *testing.T) {
	// A flush in volume 0 must not delay a read in volume 1.
	d := MustNew(PresetD(5))
	t0 := simclock.Time(0)
	// Fill volume 0's buffer to trigger a flush (buffer = 32 pages).
	for i := 0; i < 33; i++ {
		done := d.Submit(blockdev.Request{Op: blockdev.Write, LBA: int64(i * 8), Sectors: 8}, t0)
		t0 = done
	}
	// Volume 0 is draining: a read there is slow...
	d0, c0 := d.SubmitTagged(blockdev.Request{Op: blockdev.Read, LBA: 9999 * 8, Sectors: 8}, t0)
	if c0 == blockdev.CauseNone {
		t.Fatal("read in flushing volume should be delayed")
	}
	// ...but a read in volume 1 (bit 17 set) is fast.
	d1, c1 := d.SubmitTagged(blockdev.Request{Op: blockdev.Read, LBA: 1<<17 + 8, Sectors: 8}, t0)
	if c1 != blockdev.CauseNone {
		t.Fatalf("other-volume read delayed: cause=%v", c1)
	}
	if d1.Sub(t0) >= d0.Sub(t0) {
		t.Fatalf("isolated read (%v) not faster than interfered read (%v)", d1.Sub(t0), d0.Sub(t0))
	}
}

func TestOptimalDevice(t *testing.T) {
	d := MustNew(ProtoOptimal(1))
	for i := 0; i < 100; i++ {
		done, cause := d.SubmitTagged(blockdev.Request{Op: blockdev.Write, LBA: int64(i * 8), Sectors: 8}, simclock.Time(i*1000))
		if cause != blockdev.CauseNone {
			t.Fatal("optimal device must never report a cause")
		}
		if lat := done.Sub(simclock.Time(i * 1000)); lat != 28*time.Microsecond {
			t.Fatalf("optimal latency=%v", lat)
		}
	}
}

func TestSecondaryFeaturesInjectHL(t *testing.T) {
	cfg := PresetA(7)
	cfg.SecondaryRate = 0.05 // exaggerate for the test
	d := MustNew(cfg)
	t0 := simclock.Time(0)
	secondary := 0
	for i := 0; i < 2000; i++ {
		lba := int64(i*64) % d.CapacitySectors()
		done, cause := d.SubmitTagged(blockdev.Request{Op: blockdev.Read, LBA: lba, Sectors: 8}, t0)
		if cause == blockdev.CauseSecondary {
			secondary++
			if done.Sub(t0) < 500*time.Microsecond {
				t.Fatalf("secondary stall too short: %v", done.Sub(t0))
			}
		}
		t0 = done
	}
	if secondary < 40 || secondary > 250 {
		t.Fatalf("secondary events=%d, expected around 100", secondary)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []simclock.Time {
		d := MustNew(PresetA(42))
		rng := simclock.NewRNG(9)
		t0 := simclock.Time(0)
		var lats []simclock.Time
		for i := 0; i < 3000; i++ {
			lba := rng.Int63n(d.CapacitySectors()/8) * 8
			op := blockdev.Write
			if rng.Intn(3) == 0 {
				op = blockdev.Read
			}
			done := d.Submit(blockdev.Request{Op: op, LBA: lba, Sectors: 8}, t0)
			lats = append(lats, done-t0)
			t0 = done
		}
		return lats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPurgeResetsMappings(t *testing.T) {
	d := MustNew(PresetA(11))
	t0 := simclock.Time(0)
	for i := 0; i < 500; i++ {
		t0 = d.Submit(blockdev.Request{Op: blockdev.Write, LBA: int64(i * 8), Sectors: 8}, t0)
	}
	t0 = d.Purge(t0)
	// After purge every read is a clean miss with NL latency.
	done, cause := d.SubmitTagged(blockdev.Request{Op: blockdev.Read, LBA: 0, Sectors: 8}, t0)
	if cause != blockdev.CauseNone {
		t.Fatalf("post-purge read cause=%v", cause)
	}
	if done.Sub(t0) > 250*time.Microsecond {
		t.Fatalf("post-purge read slow: %v", done.Sub(t0))
	}
}

func TestRequestSpanningRegions(t *testing.T) {
	d := MustNew(PresetD(13))
	// A write crossing the 64 MB region boundary splits across volumes
	// and must complete without corrupting either.
	boundary := int64(1 << 17)
	done := d.Submit(blockdev.Request{Op: blockdev.Write, LBA: boundary - 8, Sectors: 16}, 0)
	if done <= 0 {
		t.Fatal("spanning write failed")
	}
	// Both volumes saw one page.
	if d.VolumeStats(0).Writes != 1 || d.VolumeStats(1).Writes != 1 {
		t.Fatalf("write split wrong: vol0=%d vol1=%d", d.VolumeStats(0).Writes, d.VolumeStats(1).Writes)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := PresetA(1)
	cfg.LogicalSectors = 1004 // not a page multiple
	if _, err := New(cfg); err == nil {
		t.Error("non-page-multiple capacity accepted")
	}
	cfg = PresetA(1)
	cfg.VolumeBits = []int{25} // beyond address range
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range volume bit accepted")
	}
	cfg = PresetD(1)
	cfg.LogicalSectors = 3 * blockdev.SectorsPerPage // not divisible by volumes
	if _, err := New(cfg); err == nil {
		t.Error("capacity not divisible by volumes accepted")
	}
}

func TestPrototypeVariantsOrdering(t *testing.T) {
	// Tail latency must increase monotonically Optimal <= Others <=
	// WB+Others <= All for sustained random writes — the Fig. 3a shape.
	tail := func(cfg Config) time.Duration {
		d := MustNew(cfg)
		rng := simclock.NewRNG(21)
		t0 := simclock.Time(0)
		lats := make([]time.Duration, 0, 20000)
		for i := 0; i < 20000; i++ {
			lba := rng.Int63n(d.CapacitySectors()/8) * 8
			done := d.Submit(blockdev.Request{Op: blockdev.Write, LBA: lba, Sectors: 8}, t0)
			lats = append(lats, done.Sub(t0))
			t0 = done
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)*995/1000]
	}
	optimal := tail(ProtoOptimal(21))
	others := tail(ProtoOthers(21))
	wb := tail(ProtoWB(21))
	all := tail(ProtoAll(21))
	if !(optimal <= others && others <= wb && wb <= all) {
		t.Fatalf("tail ordering violated: optimal=%v others=%v wb=%v all=%v", optimal, others, wb, all)
	}
	if wb < 4*optimal {
		t.Fatalf("WB variant tail %v should be several times optimal %v", wb, optimal)
	}
	if all < 8*optimal || all < wb {
		t.Fatalf("All variant tail %v should dwarf optimal %v and cover WB %v", all, optimal, wb)
	}
}

func TestPresetHConstructs(t *testing.T) {
	d := MustNew(PresetH(1))
	if d.Volumes() != 1 {
		t.Fatalf("H volumes=%d", d.Volumes())
	}
	// The SLC region must absorb a flush quickly and fold periodically.
	t0 := simclock.Time(0)
	folds := func() uint64 { return d.VolumeStats(0).Folds }
	for i := 0; i < 3000; i++ {
		lba := int64(i*8) % d.CapacitySectors()
		t0 = d.Submit(blockdev.Request{Op: blockdev.Write, LBA: lba, Sectors: 8}, t0)
	}
	if folds() == 0 {
		t.Fatal("SSD H never folded its SLC cache")
	}
}

func TestPresetXIsBoring(t *testing.T) {
	// The NVM-class preset must be fast and regular: that is its role.
	d := MustNew(PresetX(2))
	rng := simclock.NewRNG(3)
	t0 := simclock.Time(0)
	var worst time.Duration
	for i := 0; i < 30000; i++ {
		lba := rng.Int63n(d.CapacitySectors()/8) * 8
		op := blockdev.Write
		if rng.Intn(3) == 0 {
			op = blockdev.Read
		}
		done := d.Submit(blockdev.Request{Op: op, LBA: lba, Sectors: 8}, t0)
		if lat := done.Sub(t0); lat > worst {
			worst = lat
		}
		t0 = done
	}
	if worst > 2*time.Millisecond {
		t.Fatalf("preset X produced a %v stall; it must stay boring", worst)
	}
}

func TestWouldStallReadOracle(t *testing.T) {
	d := MustNew(PresetA(5))
	if d.WouldStallRead(0, 0) {
		t.Fatal("fresh device should not stall reads")
	}
	// Fill the buffer to trigger a background drain.
	t0 := simclock.Time(0)
	for i := 0; i < 63; i++ {
		t0 = d.Submit(blockdev.Request{Op: blockdev.Write, LBA: int64(i * 8), Sectors: 8}, t0)
	}
	if !d.WouldStallRead(9999*8, t0) {
		t.Fatal("oracle should see the in-flight drain")
	}
	// After the drain, idle again.
	later := t0.Add(10 * time.Millisecond)
	if d.WouldStallRead(9999*8, later) {
		t.Fatal("oracle should see the media idle after the drain")
	}
	// In-order oracle: pending writes that wrap the buffer stall a read.
	if !d.WouldStallReadAfterWrites(9999*8, later, 200) {
		t.Fatal("in-order oracle should see the future flush")
	}
}

func TestPurgeMultiVolume(t *testing.T) {
	d := MustNew(PresetE(7))
	t0 := simclock.Time(0)
	for i := 0; i < 2000; i++ {
		lba := int64(i*977*8) % d.CapacitySectors()
		lba -= lba % 8
		t0 = d.Submit(blockdev.Request{Op: blockdev.Write, LBA: lba, Sectors: 8}, t0)
	}
	t0 = d.Purge(t0)
	for v := 0; v < d.Volumes(); v++ {
		lba := int64(v) << 17
		done, cause := d.SubmitTagged(blockdev.Request{Op: blockdev.Read, LBA: lba, Sectors: 8}, t0)
		if cause != blockdev.CauseNone || done.Sub(t0) > 250*time.Microsecond {
			t.Fatalf("volume %d not clean after purge: cause=%v lat=%v", v, cause, done.Sub(t0))
		}
	}
}

func TestShiftFeaturesChangesBufferBehavior(t *testing.T) {
	d := MustNew(PresetA(5))
	before := d.Config()

	// Halving the buffer and flipping to fore-type must stick in the
	// config mirror.
	if !d.ShiftFeatures(blockdev.FeatureShift{BufferScale: 0.5, ToggleBufferKind: true}) {
		t.Fatal("shift on a shiftable device reported false")
	}
	after := d.Config()
	if after.BufferBytes != before.BufferBytes/2 {
		t.Fatalf("buffer %d after halving %d", after.BufferBytes, before.BufferBytes)
	}
	if after.BufferType == before.BufferType {
		t.Fatal("buffer type did not flip")
	}
	if !d.ShiftFeatures(blockdev.FeatureShift{ToggleReadTrigger: true}) {
		t.Fatal("read-trigger toggle reported false")
	}
	if d.Config().ReadTriggerFlush == before.ReadTriggerFlush {
		t.Fatal("read-trigger flag did not flip")
	}

	// Empty shifts are no-ops.
	if d.ShiftFeatures(blockdev.FeatureShift{}) || d.ShiftFeatures(blockdev.FeatureShift{BufferScale: 1}) {
		t.Fatal("empty shift reported applied")
	}

	// The device still works and the shifted behavior is observable:
	// with read-trigger flushing on, a read after a write is delayed.
	now := d.Purge(0)
	now = d.Submit(blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}, now)
	_, cause := d.SubmitTagged(blockdev.Request{Op: blockdev.Read, LBA: 1 << 16, Sectors: 8}, now)
	if d.Config().ReadTriggerFlush && cause != blockdev.CauseReadTrigger && cause != blockdev.CauseGC {
		t.Fatalf("read-trigger shift not observable, cause=%v", cause)
	}
}

func TestShiftFeaturesOptimalDeclines(t *testing.T) {
	d := MustNew(ProtoOptimal(5))
	if d.ShiftFeatures(blockdev.FeatureShift{BufferScale: 0.5}) {
		t.Fatal("optimal device accepted a feature shift")
	}
}

func TestShiftFeaturesBufferFloor(t *testing.T) {
	d := MustNew(PresetA(5))
	// Scaling far below one page floors at a single page, never zero.
	if !d.ShiftFeatures(blockdev.FeatureShift{BufferScale: 1e-9}) {
		t.Fatal("tiny scale reported false")
	}
	if got := d.Config().BufferBytes; got != blockdev.PageSize {
		t.Fatalf("buffer floored at %d bytes, want one page", got)
	}
}

// Config returns the device configuration (ground truth for tests).
func (d *Device) Config() Config { return d.cfg }

// WouldStallRead reports whether a read of lba submitted at t would be
// delayed by internal activity.
func (d *Device) WouldStallRead(lba int64, at simclock.Time) bool {
	return d.WouldStallReadAfterWrites(lba, at, 0)
}

// AllPresets returns fresh devices A–G.
func AllPresets(seed uint64) []*Device {
	out := make([]*Device, 0, len(PresetNames))
	for i, n := range PresetNames {
		cfg, err := Preset(n, seed+uint64(i)*101)
		if err != nil {
			panic(err)
		}
		out = append(out, MustNew(cfg))
	}
	return out
}
