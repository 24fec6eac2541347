package experiments

import (
	"io"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/ftl"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/stats"
	"ssdcheck/internal/trace"
)

// Fig04Result reproduces the allocation-volume scan of Fig. 4:
// throughput versus fixed LBA bit index on a single-volume and a
// two-volume device.
type Fig04Result struct {
	Devices []Fig04Device
}

// Fig04Device is one device's scan.
type Fig04Device struct {
	Name         string
	BaselineMBps float64
	Points       []extract.BitThroughput
	DetectedBits []int
}

// Name implements Report.
func (Fig04Result) Name() string { return "Fig. 4" }

// Render implements Report.
func (r Fig04Result) Render(w io.Writer) {
	fprintf(w, "Fig. 4 — throughput vs fixed bit index\n")
	for _, d := range r.Devices {
		fprintf(w, "%s (baseline %.1f MB/s, detected volume bits %v)\n", d.Name, d.BaselineMBps, d.DetectedBits)
		for _, p := range d.Points {
			fprintf(w, "  bit %2d: %7.2f MB/s  ratio %.2f\n", p.Bit, p.MBps, p.Ratio)
		}
	}
}

// Fig04 runs the allocation-volume diagnosis scan on SSD A (one volume)
// and SSD D (two volumes, index 17).
func Fig04(o Opts) Fig04Result {
	o = o.WithDefaults()
	names := []string{"A", "D"}
	devices := runPar(o, len(names), func(i int) Fig04Device {
		cfg, _ := ssd.Preset(names[i], o.Seed)
		dev, now := preparedDevice(cfg, o.Seed)
		s := extract.NewSession(dev, now, o.Seed+1)
		do := diagOpts(o.Seed).WithDefaults(dev.CapacitySectors())
		extract.CalibrateThresholds(s)
		scan := extract.ScanAllocationVolumes(s, do)
		return Fig04Device{
			Name:         dev.Name(),
			BaselineMBps: scan.BaselineMBps,
			Points:       scan.Points,
			DetectedBits: scan.VolumeBits,
		}
	})
	return Fig04Result{Devices: devices}
}

// Fig05Result reproduces the GC-volume scan of Fig. 5: Fixed-pattern GC
// interval distribution and chi-squared p-values per bit.
type Fig05Result struct {
	Devices []Fig05Device
}

// Fig05Device is one device's scan.
type Fig05Device struct {
	Name           string
	FixedCDF       []stats.CDFPoint // GC-interval CDF (writes), Fig. 5a
	PValues        []extract.BitPValue
	DetectedBits   []int
	GCOverheadMs   float64
	FixedIntervals int
}

// Name implements Report.
func (Fig05Result) Name() string { return "Fig. 5" }

// Render implements Report.
func (r Fig05Result) Render(w io.Writer) {
	fprintf(w, "Fig. 5 — GC-volume identification (Fixed vs Flip_x chi-squared)\n")
	for _, d := range r.Devices {
		fprintf(w, "%s: %d Fixed intervals, GC stall ~%.1fms, detected bits %v\n",
			d.Name, d.FixedIntervals, d.GCOverheadMs, d.DetectedBits)
		for _, p := range d.PValues {
			fprintf(w, "  bit %2d: p=%.4f after %d intervals per pattern\n", p.Bit, p.PValue, p.Intervals)
		}
	}
}

// Fig05 runs the GC-volume diagnosis on SSDs A, D and E.
func Fig05(o Opts) Fig05Result {
	o = o.WithDefaults()
	names := []string{"A", "D", "E"}
	devices := runPar(o, len(names), func(i int) Fig05Device {
		cfg, _ := ssd.Preset(names[i], o.Seed)
		dev, now := preparedDevice(cfg, o.Seed)
		s := extract.NewSession(dev, now, o.Seed+2)
		do := diagOpts(o.Seed).WithDefaults(dev.CapacitySectors())
		extract.CalibrateThresholds(s)
		extract.ScanAllocationVolumes(s, do)
		scan := extract.ScanGCVolumes(s, do)

		var ivs stats.Sample
		for _, iv := range scan.FixedIntervals {
			ivs.Add(iv)
		}
		return Fig05Device{
			Name:           dev.Name(),
			FixedCDF:       ivs.CDF(16),
			PValues:        scan.Points,
			DetectedBits:   scan.VolumeBits,
			GCOverheadMs:   float64(scan.Overhead) / 1e6,
			FixedIntervals: len(scan.FixedIntervals),
		}
	})
	return Fig05Result{Devices: devices}
}

// Fig06Result reproduces the write-buffer profile of Fig. 6: periodic HL
// reads expose the buffer size.
type Fig06Result struct {
	Device         string
	PeriodWrites   int
	BufferKB       int
	StallMs        float64
	ThinktimesUsed []time.Duration
}

// Name implements Report.
func (Fig06Result) Name() string { return "Fig. 6" }

// Render implements Report.
func (r Fig06Result) Render(w io.Writer) {
	fprintf(w, "Fig. 6 — write-buffer profiling on %s\n", r.Device)
	fprintf(w, "HL-read period: %d writes -> buffer %d KB (drain stall ~%.2f ms, consistent across %v)\n",
		r.PeriodWrites, r.BufferKB, r.StallMs, r.ThinktimesUsed)
}

// Fig06 runs the background-read buffer probe on SSD A.
func Fig06(o Opts) Fig06Result {
	o = o.WithDefaults()
	cfg := ssd.PresetA(o.Seed)
	dev, now := preparedDevice(cfg, o.Seed)
	s := extract.NewSession(dev, now, o.Seed+3)
	do := diagOpts(o.Seed).WithDefaults(dev.CapacitySectors())
	readThr, writeThr := extract.CalibrateThresholds(s)
	buf := extract.AnalyzeWriteBuffer(s, do, nil, readThr, writeThr)
	return Fig06Result{
		Device:         dev.Name(),
		PeriodWrites:   buf.Bytes / 4096,
		BufferKB:       buf.Bytes / 1024,
		StallMs:        float64(buf.FlushOverhead) / 1e6,
		ThinktimesUsed: do.Thinktimes,
	}
}

// Table1Result reproduces Table I: the features extracted from every
// preset, with a ground-truth comparison the paper could not print.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one device's extraction outcome.
type Table1Row struct {
	Device   string
	Features *extract.Features
	// Match reports whether extraction recovered the simulator's
	// ground-truth configuration exactly.
	Match bool
	Err   error
}

// Name implements Report.
func (Table1Result) Name() string { return "Table I" }

// Render implements Report.
func (r Table1Result) Render(w io.Writer) {
	fprintf(w, "Table I — extracted internal features\n")
	fprintf(w, "%-8s %-14s %-8s %-8s %-12s %s\n", "SSD", "volumes(idx)", "buffer", "type", "flush", "ground truth")
	for _, row := range r.Rows {
		if row.Err != nil {
			fprintf(w, "%-8s diagnosis failed: %v\n", row.Device, row.Err)
			continue
		}
		status := "MATCH"
		if !row.Match {
			status = "MISMATCH"
		}
		fprintf(w, "%s   [%s]\n", row.Features.TableRow(row.Device), status)
	}
}

// Table1 runs the full diagnosis on all seven presets and checks the
// result against the simulator's ground truth.
func Table1(o Opts) Table1Result {
	o = o.WithDefaults()
	rows := runPar(o, len(ssd.PresetNames), func(i int) Table1Row {
		name := ssd.PresetNames[i]
		cfg, _ := ssd.Preset(name, o.Seed+uint64(i)*31)
		_, feats, _, err := diagnosedDevice(cfg, o.Seed+uint64(i)*17)
		row := Table1Row{Device: "SSD " + name, Features: feats, Err: err}
		if err == nil {
			row.Match = matchGroundTruth(cfg, feats)
		}
		return row
	})
	return Table1Result{Rows: rows}
}

func matchGroundTruth(cfg ssd.Config, f *extract.Features) bool {
	if len(f.VolumeBits) != len(cfg.VolumeBits) {
		return false
	}
	want := append([]int(nil), cfg.VolumeBits...)
	for i := range want {
		if f.VolumeBits[i] != want[i] {
			return false
		}
	}
	if f.BufferBytes != cfg.BufferBytes {
		return false
	}
	wantFore := cfg.BufferType == ftl.BufferFore
	if (f.BufferKind == extract.BufferFore) != wantFore {
		return false
	}
	hasRT := false
	for _, a := range f.FlushAlgorithms {
		if a == extract.FlushReadTrigger {
			hasRT = true
		}
	}
	return hasRT == cfg.ReadTriggerFlush
}

// Table2Result reproduces Table II: the generated workloads'
// characteristics versus their published targets.
type Table2Result struct {
	Rows []Table2Row
}

// Table2Row is one workload's characterization.
type Table2Row struct {
	Name                   string
	Requests               int
	WriteFrac, RandomFrac  float64
	TargetWrite, TargetRnd float64
}

// Name implements Report.
func (Table2Result) Name() string { return "Table II" }

// Render implements Report.
func (r Table2Result) Render(w io.Writer) {
	fprintf(w, "Table II — workload characteristics (measured vs target)\n")
	fprintf(w, "%-10s %10s %18s %18s\n", "trace", "requests", "writes", "random")
	for _, row := range r.Rows {
		fprintf(w, "%-10s %10d %8.1f%%/%5.1f%% %9.1f%%/%5.1f%%\n",
			row.Name, row.Requests, 100*row.WriteFrac, 100*row.TargetWrite,
			100*row.RandomFrac, 100*row.TargetRnd)
	}
}

// Table2 characterizes a sample of every evaluation workload.
func Table2(o Opts) Table2Result {
	o = o.WithDefaults()
	rows := runPar(o, len(trace.Workloads), func(i int) Table2Row {
		spec := trace.Workloads[i]
		reqs := trace.Generate(spec, 1<<20, o.Seed+5, o.n(40000))
		ch := trace.Characterize(reqs)
		return Table2Row{
			Name: spec.Name, Requests: spec.Requests,
			WriteFrac: ch.WriteFrac, RandomFrac: ch.RandomFrac,
			TargetWrite: spec.WriteFrac, TargetRnd: spec.RandomFrac,
		}
	})
	return Table2Result{Rows: rows}
}

// Table3Result reproduces Table III: the latency distribution of Web on
// SSD A against the 250 µs / 3500 µs / 10 ms buckets.
type Table3Result struct {
	ReadBuckets  [4]float64 // <250us, <3500us, <10ms, >=10ms
	WriteBuckets [4]float64
}

// Name implements Report.
func (Table3Result) Name() string { return "Table III" }

// Render implements Report.
func (r Table3Result) Render(w io.Writer) {
	fprintf(w, "Table III — latency distribution of Web on SSD A\n")
	fprintf(w, "%-7s %9s %9s %9s %9s\n", "", "<250us", "<3500us", "<10ms", ">=10ms")
	fprintf(w, "%-7s %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n", "read",
		100*r.ReadBuckets[0], 100*r.ReadBuckets[1], 100*r.ReadBuckets[2], 100*r.ReadBuckets[3])
	fprintf(w, "%-7s %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n", "write",
		100*r.WriteBuckets[0], 100*r.WriteBuckets[1], 100*r.WriteBuckets[2], 100*r.WriteBuckets[3])
}

// Table3 replays Web on SSD A and buckets the latencies. A modest
// thinktime stands in for the trace's natural arrival pacing (a flat-out
// QD1 replay would keep the write buffer permanently draining and shift
// the whole read distribution, which no real trace replay does).
func Table3(o Opts) Table3Result {
	o = o.WithDefaults()
	dev, now := preparedDevice(ssd.PresetA(o.Seed), o.Seed)
	gen := trace.NewGenerator(trace.Web, dev.CapacitySectors(), o.Seed+9)
	log, _ := trace.ReplayGenerator(dev, gen, o.n(60000), trace.ReplayOptions{Start: now, Thinktime: 3 * time.Millisecond})

	var res Table3Result
	var nr, nw float64
	for _, c := range log {
		lat := time.Duration(c.Latency())
		b := 3
		switch {
		case lat < 250*time.Microsecond:
			b = 0
		case lat < 3500*time.Microsecond:
			b = 1
		case lat < 10*time.Millisecond:
			b = 2
		}
		if c.Req.Op == blockdev.Read {
			res.ReadBuckets[b]++
			nr++
		} else {
			res.WriteBuckets[b]++
			nw++
		}
	}
	for i := range res.ReadBuckets {
		if nr > 0 {
			res.ReadBuckets[i] /= nr
		}
		if nw > 0 {
			res.WriteBuckets[i] /= nw
		}
	}
	return res
}
