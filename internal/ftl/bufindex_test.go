package ftl

import (
	"fmt"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// refIndex is the buffer-membership bookkeeping the volume carried
// before the one-bit-per-page bitmap: dense per-page occurrence counts,
// epoch-stamped so a drain clears them in O(1). It is kept verbatim as
// the oracle for TestBufferIndexMatchesReference; n mirrors the FIFO
// length so the reference can tell when the volume must have drained.
type refIndex struct {
	bufStamp    []uint64
	bufCnt      []int32
	bufEpoch    uint64
	bufDistinct int
	n           int
}

func newRefIndex(logicalPages int) *refIndex {
	return &refIndex{
		bufStamp: make([]uint64, logicalPages),
		bufCnt:   make([]int32, logicalPages),
		bufEpoch: 1,
	}
}

func (r *refIndex) add(lpn int32) {
	r.n++
	if r.bufStamp[lpn] != r.bufEpoch {
		r.bufStamp[lpn] = r.bufEpoch
		r.bufCnt[lpn] = 0
	}
	if r.bufCnt[lpn] == 0 {
		r.bufDistinct++
	}
	r.bufCnt[lpn]++
}

func (r *refIndex) drain() {
	if r.n == 0 {
		return
	}
	r.n = 0
	r.bufEpoch++
	r.bufDistinct = 0
}

func (r *refIndex) trim(lpn int32) {
	if r.bufStamp[lpn] == r.bufEpoch && r.bufCnt[lpn] > 0 {
		r.n -= int(r.bufCnt[lpn])
		r.bufCnt[lpn] = 0
		r.bufDistinct--
	}
}

func (r *refIndex) allBuffered(lpn int32, pages int) bool {
	if r.bufDistinct == 0 {
		return false
	}
	for i := 0; i < pages; i++ {
		p := lpn + int32(i)
		if int(p) >= len(r.bufCnt) || r.bufStamp[p] != r.bufEpoch || r.bufCnt[p] == 0 {
			return false
		}
	}
	return true
}

// TestBufferIndexMatchesReference drives a volume and the reference
// index side by side through seeded Write/Read/Trim/FlushNow/
// ShiftFeatures sequences and demands, after every operation, that
// allBuffered agrees with the reference on sampled ranges and that
// CheckInvariants passes. Addresses are drawn mostly from a few hot
// spots (heavy duplicates; ranges straddling a 64-page bitmap word and
// the end of the volume) so buffered reads and trims of buffered pages
// are common rather than accidents.
func TestBufferIndexMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		kind        BufferType
		readTrigger bool
		slcBlocks   int
	}{
		{BufferBack, false, 0},
		{BufferFore, false, 0},
		{BufferBack, true, 0},
		{BufferFore, false, 3},
		{BufferBack, true, 3},
	} {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%v/readtrigger=%v/slc=%d/seed=%d", tc.kind, tc.readTrigger, tc.slcBlocks, seed), func(t *testing.T) {
				cfg := testConfig()
				cfg.BufferType = tc.kind
				cfg.ReadTriggerFlush = tc.readTrigger
				cfg.SLCBlocks = tc.slcBlocks
				cfg.JitterFrac = 0.05
				cfg.Seed = seed
				v, err := NewVolume(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefIndex(cfg.LogicalPages)
				rng := simclock.NewRNG(seed * 977)
				last := int32(cfg.LogicalPages - 1)
				hot := []int32{0, 60, 124, 1000, last - 5}
				pick := func() int32 {
					if rng.Intn(4) == 0 {
						return int32(rng.Intn(cfg.LogicalPages))
					}
					return hot[rng.Intn(len(hot))] + int32(rng.Intn(10))
				}
				check := func(op string, lpn int32) {
					t.Helper()
					if len(v.buf) != ref.n {
						t.Fatalf("after %s: FIFO holds %d pages, reference %d", op, len(v.buf), ref.n)
					}
					if err := v.CheckInvariants(); err != nil {
						t.Fatalf("after %s: %v", op, err)
					}
					for i := 0; i < 24; i++ {
						at, pages := pick(), 1+rng.Intn(6)
						if i < 8 { // around the page range just touched
							at = lpn - 2 + int32(i)
							if at < 0 {
								at = 0
							}
						}
						if got, want := v.allBuffered(at, pages), ref.allBuffered(at, pages); got != want {
							t.Fatalf("after %s: allBuffered(%d, %d)=%v, reference %v", op, at, pages, got, want)
						}
					}
				}

				now := simclock.Time(0)
				for i := 0; i < 2000; i++ {
					lpn, pages := pick(), 1+rng.Intn(8)
					var op string
					switch r := rng.Intn(100); {
					case r < 55:
						op = "Write"
						for p := lpn; p < lpn+int32(pages) && p <= last; p++ {
							if ref.n >= v.cfg.BufferPages {
								ref.drain()
							}
							ref.add(p)
						}
						now, _ = v.Write(lpn, pages, now)
					case r < 80:
						op = "Read"
						if v.cfg.ReadTriggerFlush {
							ref.drain()
						}
						done, _ := v.Read(lpn, pages, now)
						now = done.Max(now)
					case r < 92:
						op = "Trim"
						for p := lpn; p < lpn+int32(pages) && p <= last; p++ {
							ref.trim(p)
						}
						v.Trim(lpn, pages)
					case r < 97:
						op = "FlushNow"
						ref.drain()
						now = v.FlushNow(now)
					default:
						op = "ShiftFeatures"
						// Walk the capacity within 4..32 pages: large enough
						// for buffered reads, small enough that a drain
						// still fits the SLC region.
						scale := 2.0
						if v.cfg.BufferPages > 16 || (v.cfg.BufferPages > 4 && rng.Uint64()&1 == 1) {
							scale = 0.5
						}
						v.ShiftFeatures(blockdev.FeatureShift{
							BufferScale:       scale,
							ToggleBufferKind:  rng.Uint64()&1 == 1,
							ToggleReadTrigger: rng.Uint64()&1 == 1,
						})
					}
					check(op, lpn)
				}
				if v.stats.BufferHits == 0 || v.stats.Flushes == 0 {
					t.Fatalf("sequence too tame to be an oracle: %d buffer hits, %d flushes", v.stats.BufferHits, v.stats.Flushes)
				}
			})
		}
	}
}
