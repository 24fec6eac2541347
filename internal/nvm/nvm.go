// Package nvm implements the paper's second use-case substrate (§IV-B,
// Hybrid PAS): a small fast non-volatile memory tier (PCM-like) in front
// of an SSD, the baseline policy that shovels every write into the NVM
// until it chokes, and the paper's Hybrid PAS, which asks SSDcheck for a
// latency prediction and forwards only predicted-HL writes (plus a
// configurable share of NL writes) to the NVM.
package nvm

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// Tier models the NVM device: fixed fast access latencies, finite
// capacity, page-granular residency, FIFO drain order.
type Tier struct {
	capacity int64 // bytes
	used     int64
	writeLat time.Duration
	readLat  time.Duration

	resident map[int64]struct{} // page-aligned LBAs resident in NVM
	fifo     []int64            // drain order

	bytesWritten int64 // lifetime write traffic = the Fig. 15c pressure

	// blocked latches once the tier fills and releases when the drain
	// pulls occupancy under the low watermark; see Admit.
	blocked bool
}

// NewTier returns an NVM of the given capacity. Latencies default to
// PCM-like values (write ~5 µs, read ~2 µs per request) when zero.
func NewTier(capacityBytes int64, writeLat, readLat time.Duration) *Tier {
	if writeLat == 0 {
		writeLat = 5 * time.Microsecond
	}
	if readLat == 0 {
		readLat = 2 * time.Microsecond
	}
	return &Tier{
		capacity: capacityBytes,
		writeLat: writeLat,
		readLat:  readLat,
		resident: make(map[int64]struct{}),
	}
}

// Free returns the remaining capacity in bytes.
func (t *Tier) Free() int64 { return t.capacity - t.used }

// BytesWritten returns the lifetime write traffic into the NVM.
func (t *Tier) BytesWritten() int64 { return t.bytesWritten }

// CanAbsorb reports whether a request of the given size fits right now,
// ignoring the admission hysteresis (used for reserve-backed HL writes).
func (t *Tier) CanAbsorb(bytes int) bool { return t.used+int64(bytes) <= t.capacity }

// Admit applies the admission hysteresis: once the tier fills, new data
// is refused until the drain pulls occupancy below the low watermark
// (half), the classic watermark pair of write-through caches. A
// saturated tier therefore exposes the raw device in sustained bursts —
// while a drain with headroom never engages the latch at all.
func (t *Tier) Admit(bytes int) bool {
	if t.blocked {
		if t.used > t.capacity/2 {
			return false
		}
		t.blocked = false
	}
	if t.used+int64(bytes) > t.capacity {
		t.blocked = true
		return false
	}
	return true
}

// Write absorbs a write request and returns its completion time. The
// caller must have checked CanAbsorb.
func (t *Tier) Write(req blockdev.Request, at simclock.Time) simclock.Time {
	first := req.LBA / blockdev.SectorsPerPage
	last := (req.LBA + int64(req.Sectors) - 1) / blockdev.SectorsPerPage
	for p := first; p <= last; p++ {
		lba := p * blockdev.SectorsPerPage
		if _, ok := t.resident[lba]; !ok {
			t.resident[lba] = struct{}{}
			t.fifo = append(t.fifo, lba)
			t.used += blockdev.PageSize
		}
	}
	t.bytesWritten += int64(req.Bytes())
	return at.Add(t.writeLat)
}

// Holds reports whether every page of the request is resident.
func (t *Tier) Holds(req blockdev.Request) bool {
	first := req.LBA / blockdev.SectorsPerPage
	last := (req.LBA + int64(req.Sectors) - 1) / blockdev.SectorsPerPage
	for p := first; p <= last; p++ {
		if _, ok := t.resident[p*blockdev.SectorsPerPage]; !ok {
			return false
		}
	}
	return true
}

// Read serves a fully-resident read.
func (t *Tier) Read(at simclock.Time) simclock.Time { return at.Add(t.readLat) }

// PopDrain removes up to n pages in FIFO order for draining to the SSD
// and returns their page-aligned LBAs.
func (t *Tier) PopDrain(n int) []int64 {
	if n > len(t.fifo) {
		n = len(t.fifo)
	}
	out := t.fifo[:n]
	t.fifo = t.fifo[n:]
	for _, lba := range out {
		delete(t.resident, lba)
		t.used -= blockdev.PageSize
	}
	return out
}

// Pending returns how many pages await draining.
func (t *Tier) Pending() int { return len(t.fifo) }
