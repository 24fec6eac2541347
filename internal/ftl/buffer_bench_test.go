package ftl

import (
	"testing"

	"ssdcheck/internal/simclock"
)

// BenchmarkBufferMembership exercises the per-read check whether a page
// range sits in the active write buffer: a test of one bit per page in
// the membership bitmap. One small volume stays cache-warm here, so
// this prices the instructions only; what the index costs in cache
// misses when many devices are served in turns is measured by
// BenchmarkDeviceSubmitMany in the root package.
func BenchmarkBufferMembership(b *testing.B) {
	v, err := NewVolume(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	var t simclock.Time
	// Half-fill the buffer so both hits and misses are measured without
	// a flush perturbing the loop.
	fill := v.cfg.BufferPages / 2
	for i := 0; i < fill; i++ {
		t, _ = v.Write(int32(i*3), 1, t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.allBuffered(int32(i%(3*fill)), 1)
	}
}

// BenchmarkVolumeWrite measures the buffered-write path end to end,
// including the periodic flushes and the GC they provoke.
func BenchmarkVolumeWrite(b *testing.B) {
	v, err := NewVolume(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := simclock.NewRNG(9)
	var t simclock.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, _ = v.Write(int32(rng.Intn(v.cfg.LogicalPages)), 1, t)
	}
}
