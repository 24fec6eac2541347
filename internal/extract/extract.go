// Package extract implements SSDcheck's diagnosis code snippets (paper
// §III-B): the offline probes that reverse-engineer a black-box SSD's
// internal allocation/GC volumes and write-buffer parameters purely from
// request latencies and throughput.
//
// Everything here talks to the device exclusively through
// blockdev.Device — submit a request, observe its completion time. No
// simulator internals are consulted; the same code would drive a real
// block device given a Submit implementation.
package extract

import (
	"fmt"
	"strings"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
)

// BufferKind is the extracted write-buffer organization.
type BufferKind uint8

const (
	// BufferUnknown means the probes could not classify the buffer.
	BufferUnknown BufferKind = iota
	// BufferBack: double-buffered; flushes drain in the background.
	BufferBack
	// BufferFore: the flush-triggering write waits for the drain.
	BufferFore
)

// String names the kind as Table I does.
func (k BufferKind) String() string {
	switch k {
	case BufferBack:
		return "back"
	case BufferFore:
		return "fore"
	default:
		return "unknown"
	}
}

// FlushAlgorithm names one extracted flush trigger.
type FlushAlgorithm string

const (
	// FlushFull triggers when the buffer fills.
	FlushFull FlushAlgorithm = "full"
	// FlushReadTrigger triggers on any read with a non-empty buffer.
	FlushReadTrigger FlushAlgorithm = "read"
)

// BitThroughput is one point of the Fig. 4 scan.
type BitThroughput struct {
	Bit   int
	MBps  float64
	Ratio float64 // relative to the unconstrained baseline
}

// BitPValue is one point of the Fig. 5b scan.
type BitPValue struct {
	Bit    int
	PValue float64
	// Intervals is the per-pattern GC-interval count behind PValue: the
	// look at which the sequential scan decided the bit.
	Intervals int
}

// Features is everything the diagnosis extracts from one device — the
// per-device row of Table I plus the model-seeding measurements.
type Features struct {
	// VolumeBits are the discovered volume-index LBA bits (ascending);
	// the device has 1<<len(VolumeBits) internal volumes.
	VolumeBits []int

	BufferBytes     int
	BufferKind      BufferKind
	FlushAlgorithms []FlushAlgorithm

	// ReadThreshold and WriteThreshold separate NL from HL latencies.
	ReadThreshold  time.Duration
	WriteThreshold time.Duration

	// FlushOverhead and GCOverhead seed the runtime model's EBT costs.
	FlushOverhead time.Duration
	GCOverhead    time.Duration

	// GCIntervalWrites are the observed Fixed-pattern GC intervals (in
	// write counts), seeding the runtime GC model's distribution.
	GCIntervalWrites []float64

	// SLCCachePages is the detected SLC cache region size in pages
	// (0 = none) — an extension beyond the paper's Table I; see
	// DetectSLCCache. SLCFoldOverhead is the observed fold stall.
	SLCCachePages   int
	SLCFoldOverhead time.Duration

	// AllocScan and GCScan retain the raw per-bit scan results so the
	// experiments can regenerate Fig. 4 and Fig. 5b.
	AllocScan []BitThroughput
	GCScan    []BitPValue
}

// NumVolumes returns the extracted internal volume count.
func (f *Features) NumVolumes() int { return 1 << len(f.VolumeBits) }

// TableRow formats the features as a row of the paper's Table I.
func (f *Features) TableRow(name string) string {
	idx := "None"
	if len(f.VolumeBits) > 0 {
		parts := make([]string, len(f.VolumeBits))
		for i, b := range f.VolumeBits {
			parts[i] = fmt.Sprint(b)
		}
		idx = strings.Join(parts, ",")
	}
	algos := make([]string, len(f.FlushAlgorithms))
	for i, a := range f.FlushAlgorithms {
		algos[i] = string(a)
	}
	return fmt.Sprintf("%-8s %2d (%s)  %4dKB  %-7s %s",
		name, f.NumVolumes(), idx, f.BufferBytes/1024, f.BufferKind, strings.Join(algos, "&"))
}

// Opts tune the diagnosis probes. The zero value is filled with defaults
// by Run; fields are exposed so tests and benches can shrink the probes.
type Opts struct {
	Seed uint64

	// MinBit/MaxBit bound the LBA bit scan; MaxBit 0 means "top
	// address bit".
	MinBit, MaxBit int

	// AllocWritesPerBit is the per-bit sample size of the throughput
	// scan (Fig. 4).
	AllocWritesPerBit int
	// VolumeRatioCut is the throughput ratio below which a fixed bit
	// is declared a volume bit.
	VolumeRatioCut float64

	// GCIntervals is how many GC intervals each pattern collects
	// (Fig. 5).
	GCIntervals int
	// GCLatencyCut is the latency above which a request is taken as
	// evidence of GC (the paper: GC is "significantly longer" than
	// anything else).
	GCLatencyCut time.Duration
	// ChiAlpha is the p-value below which two interval distributions
	// are declared different.
	ChiAlpha float64

	// Thinktimes are the write gaps the buffer probe cross-checks
	// (§III-B3 footnote: multiple thinktimes must agree).
	Thinktimes []time.Duration
}

func (o Opts) WithDefaults(capacity int64) Opts {
	if o.MinBit == 0 {
		o.MinBit = 12
	}
	if o.MaxBit == 0 {
		top := 0
		for int64(1)<<uint(top+1) < capacity {
			top++
		}
		o.MaxBit = top
	}
	if o.AllocWritesPerBit == 0 {
		o.AllocWritesPerBit = 3000
	}
	if o.VolumeRatioCut == 0 {
		o.VolumeRatioCut = 0.7
	}
	if o.GCIntervals == 0 {
		o.GCIntervals = 24
	}
	if o.GCLatencyCut == 0 {
		o.GCLatencyCut = 8 * time.Millisecond
	}
	if o.ChiAlpha == 0 {
		o.ChiAlpha = 0.001
	}
	if len(o.Thinktimes) == 0 {
		o.Thinktimes = []time.Duration{500 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond}
	}
	return o
}

// Session threads the virtual clock through a diagnosis run: probes
// advance it as they submit requests.
type Session struct {
	Dev blockdev.Device
	Now simclock.Time
	rng *simclock.RNG
	err error // first device error a probe hit; sticky
}

// NewSession starts a diagnosis session on dev at virtual time now.
func NewSession(dev blockdev.Device, now simclock.Time, seed uint64) *Session {
	return &Session{Dev: dev, Now: now, rng: simclock.NewRNG(seed)}
}

// Err returns the first device error a probe hit, or nil. A diagnosis
// cannot be trusted once any probe fails (the scans assume every
// latency is a real measurement), so Run turns a sticky error into a
// failed extraction.
func (s *Session) Err() error { return s.err }

// submit issues a request at the session cursor, advances the cursor to
// its completion and returns the latency. A device error latches into
// Err and reads as a timeout-scale latency so the remaining probes stay
// well-defined while the run winds down.
func (s *Session) submit(op blockdev.Op, lba int64, sectors int) time.Duration {
	done, err := blockdev.SubmitChecked(s.Dev, blockdev.Request{Op: op, LBA: lba, Sectors: sectors}, s.Now)
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("extract: %v probe at lba %d: %w", op, lba, err)
		}
		lat := time.Second
		s.Now = s.Now.Add(lat)
		return lat
	}
	lat := done.Sub(s.Now)
	s.Now = done
	return lat
}

// think idles the session cursor for d.
func (s *Session) think(d time.Duration) { s.Now = s.Now.Add(d) }

// randomPage returns a page-aligned sector address uniform over the
// device, with the given bits forced to zero.
func (s *Session) randomPage(zeroBits ...int) int64 {
	pages := s.Dev.CapacitySectors() / blockdev.SectorsPerPage
	lba := s.rng.Int63n(pages) * blockdev.SectorsPerPage
	for _, b := range zeroBits {
		lba &^= int64(1) << uint(b)
	}
	return lba
}

// Run executes the full diagnosis on dev, starting from virtual time
// start: latency thresholds, allocation-volume scan, GC-volume scan,
// write-buffer analysis, and overhead estimation — the complete Fig. 7
// pipeline up to model construction.
//
// The device should be preconditioned (trace.Precondition) first, as the
// paper does following the SNIA practice.
func Run(dev blockdev.Device, start simclock.Time, opts Opts) (*Features, simclock.Time, error) {
	return run(dev, start, opts, ScanGCVolumes)
}

// run is Run with the GC-volume scan as a parameter, so tests can drive
// the same pipeline with a reference scan.
func run(dev blockdev.Device, start simclock.Time, opts Opts, scanGC func(*Session, Opts) GCScanResult) (*Features, simclock.Time, error) {
	o := opts.WithDefaults(dev.CapacitySectors())
	s := NewSession(dev, start, o.Seed)
	f := &Features{}

	f.ReadThreshold, f.WriteThreshold = CalibrateThresholds(s)

	alloc := ScanAllocationVolumes(s, o)
	f.AllocScan = alloc.Points
	f.VolumeBits = alloc.VolumeBits

	gc := scanGC(s, o)
	f.GCScan = gc.Points
	f.GCIntervalWrites = gc.FixedIntervals
	f.GCOverhead = gc.Overhead
	// Per the paper's observation, allocation-volume and GC-volume
	// indices coincide on every SSD studied; when the two scans
	// disagree (noise), the union is the safe model input.
	f.VolumeBits = unionBits(f.VolumeBits, gc.VolumeBits)

	buf := AnalyzeWriteBuffer(s, o, f.VolumeBits, f.ReadThreshold, f.WriteThreshold)
	f.BufferBytes = buf.Bytes
	f.BufferKind = buf.Kind
	f.FlushAlgorithms = buf.FlushAlgorithms
	f.FlushOverhead = buf.FlushOverhead

	if f.BufferBytes > 0 {
		f.SLCCachePages, f.SLCFoldOverhead = DetectSLCCache(s, o, f.VolumeBits, f.BufferBytes, f.WriteThreshold)
	}

	// A device error anywhere in the pipeline invalidates every scan
	// that ran after it; surface the failure rather than a bogus model.
	if err := s.Err(); err != nil {
		return nil, s.Now, err
	}
	if f.BufferKind == BufferUnknown && f.BufferBytes == 0 {
		return f, s.Now, fmt.Errorf("extract: write buffer not identifiable; device outside model coverage")
	}
	return f, s.Now, nil
}

func unionBits(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range append(append([]int{}, a...), b...) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	// insertion sort; the list has at most a handful of entries
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
