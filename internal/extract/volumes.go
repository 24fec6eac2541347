package extract

import (
	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/stats"
	"time"
)

// AllocScanResult is the outcome of the allocation-volume diagnosis
// (paper §III-B1, Fig. 4).
type AllocScanResult struct {
	BaselineMBps float64
	Points       []BitThroughput
	VolumeBits   []int
}

// volumeRatioCut is the throughput ratio below which a fixed bit is
// declared a volume bit.
const volumeRatioCut = 0.7

// ScanAllocationVolumes discovers the allocation-volume LBA bit indices:
// it measures sustained random-write throughput with each candidate bit
// fixed to zero and compares against the unconstrained baseline. Fixing
// a volume-index bit halves the set of active volumes — and with it the
// aggregate buffer-drain bandwidth — so throughput drops sharply; fixing
// any other bit leaves throughput unchanged.
func ScanAllocationVolumes(s *Session, o Opts) AllocScanResult {
	res := AllocScanResult{}
	res.BaselineMBps = s.measureWriteThroughput(o.AllocWritesPerBit, -1)
	mbps := make([]float64, 0, o.MaxBit-o.MinBit+1)
	for bit := o.MinBit; bit <= o.MaxBit; bit++ {
		mbps = append(mbps, s.measureWriteThroughput(o.AllocWritesPerBit, bit))
	}
	// Normalize against the median per-bit throughput rather than only
	// the up-front baseline: volume bits are a small minority of the
	// scan, so the median is an all-volumes reference that cancels the
	// slow drift device state accumulates across the scan sequence.
	var med stats.Sample
	for _, m := range mbps {
		med.Add(m)
	}
	ref := med.Percentile(50)
	if res.BaselineMBps > ref {
		ref = res.BaselineMBps
	}
	for i, bit := 0, o.MinBit; bit <= o.MaxBit; i, bit = i+1, bit+1 {
		ratio := 1.0
		if ref > 0 {
			ratio = mbps[i] / ref
		}
		res.Points = append(res.Points, BitThroughput{Bit: bit, MBps: mbps[i], Ratio: ratio})
		if ratio < volumeRatioCut {
			res.VolumeBits = append(res.VolumeBits, bit)
		}
	}
	return res
}

// measureWriteThroughput issues n closed-loop random 4 KB writes — with
// fixBit forced to zero when fixBit >= 0 — and returns MB/s of virtual
// time. A short warm-up before the timed region lets the device settle
// into the constrained pattern.
//
// Write latencies at or above gcLatencyCut are clamped out of the elapsed time:
// the scan targets the buffer-drain bandwidth of the active volumes, and
// a handful of multi-millisecond GC pauses inside a few-thousand-write
// window would otherwise dominate the measurement and mask the halving
// signal. (The paper's fio runs are long enough to average GC out; the
// clamp achieves the same robustness at probe-friendly sample sizes.)
func (s *Session) measureWriteThroughput(n int, fixBit int) float64 {
	write := func() time.Duration {
		var lba int64
		if fixBit >= 0 {
			lba = s.randomPage(fixBit)
		} else {
			lba = s.randomPage()
		}
		return s.submit(blockdev.Write, lba, blockdev.SectorsPerPage)
	}
	for i := 0; i < n/4; i++ {
		write()
	}
	var busy time.Duration
	for i := 0; i < n; i++ {
		if lat := write(); lat < gcLatencyCut {
			busy += lat
		}
	}
	if busy <= 0 {
		return 0
	}
	return float64(n) * blockdev.PageSize / busy.Seconds() / 1e6
}
