package sched

import (
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/core"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/host"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

func item(seq uint64, op blockdev.Op, at simclock.Time) host.Item {
	return host.Item{Req: blockdev.Request{Op: op, LBA: int64(seq) * 8, Sectors: 8}, Arrive: at, Seq: seq}
}

func TestNoopFIFO(t *testing.T) {
	n := NewNoop()
	if _, ok := n.Next(0); ok {
		t.Fatal("empty queue should report no work")
	}
	n.Add(item(1, blockdev.Write, 0))
	n.Add(item(2, blockdev.Read, 1))
	n.Add(item(3, blockdev.Write, 2))
	for want := uint64(1); want <= 3; want++ {
		it, ok := n.Next(10)
		if !ok || it.Seq != want {
			t.Fatalf("noop order broken: got %v ok=%v want seq %d", it.Seq, ok, want)
		}
	}
	if n.Len() != 0 {
		t.Fatal("queue should drain")
	}
}

func TestDeadlinePrefersReads(t *testing.T) {
	d := NewDeadline()
	d.Add(item(1, blockdev.Write, 0))
	d.Add(item(2, blockdev.Read, 1))
	it, _ := d.Next(10)
	if it.Req.Op != blockdev.Read {
		t.Fatalf("deadline should start with a read batch, got %v", it.Req.Op)
	}
}

func TestDeadlineWriteExpiryPreempts(t *testing.T) {
	d := NewDeadline()
	d.Add(item(1, blockdev.Write, 0))
	for i := uint64(2); i < 40; i++ {
		d.Add(item(i, blockdev.Read, 1))
	}
	// Long after the write expired, it must preempt the read batch.
	it, _ := d.Next(simclock.Time(6 * time.Second))
	if it.Req.Op != blockdev.Write {
		t.Fatalf("expired write should preempt, got %v", it.Req.Op)
	}
}

func TestDeadlineRescuesStarvedWrites(t *testing.T) {
	d := NewDeadline()
	// Interleave enough reads to run several full read batches while
	// one write waits (not yet expired).
	d.Add(item(0, blockdev.Write, 0))
	for i := uint64(1); i <= 64; i++ {
		d.Add(item(i, blockdev.Read, 0))
	}
	writeServed := -1
	for i := 0; d.Len() > 0; i++ {
		it, _ := d.Next(simclock.Time(i) * simclock.Time(time.Millisecond))
		if it.Req.Op == blockdev.Write {
			writeServed = i
			break
		}
	}
	if writeServed < 0 {
		t.Fatal("write never served")
	}
	if writeServed > 2*16+1 {
		t.Fatalf("write starved through %d dispatches, limit is two read batches", writeServed)
	}
}

func TestCFQAlternatesWithReadBias(t *testing.T) {
	c := NewCFQ()
	for i := uint64(0); i < 40; i++ {
		c.Add(item(i, blockdev.Read, 0))
		c.Add(item(100+i, blockdev.Write, 0))
	}
	reads, writes := 0, 0
	for i := 0; i < 20; i++ {
		it, ok := c.Next(0)
		if !ok {
			t.Fatal("queue should not be empty")
		}
		if it.Req.Op == blockdev.Read {
			reads++
		} else {
			writes++
		}
	}
	if reads <= writes {
		t.Fatalf("cfq should bias reads: %d reads vs %d writes", reads, writes)
	}
	if writes == 0 {
		t.Fatal("cfq must not starve writes entirely")
	}
}

func TestPASPromotesPredictedHLRead(t *testing.T) {
	hl := true
	p := NewIdealPAS(func(blockdev.Request, simclock.Time, int) bool { return hl })
	p.Add(item(1, blockdev.Write, 0))
	p.Add(item(2, blockdev.Write, 1))
	p.Add(item(3, blockdev.Read, 2))
	it, _ := p.Next(10)
	if it.Req.Op != blockdev.Read {
		t.Fatal("predicted-HL read should be promoted ahead of writes")
	}
	// With an NL prediction the original order stands.
	hl = false
	it, _ = p.Next(10)
	if it.Seq != 1 {
		t.Fatalf("NL prediction should keep FIFO order, got seq %d", it.Seq)
	}
}

func TestPASSingleDirectionIsFIFO(t *testing.T) {
	p := NewIdealPAS(func(blockdev.Request, simclock.Time, int) bool { return true })
	p.Add(item(1, blockdev.Read, 0))
	p.Add(item(2, blockdev.Read, 1))
	it, _ := p.Next(5)
	if it.Seq != 1 {
		t.Fatalf("single-direction queue must be FIFO, got %d", it.Seq)
	}
}

func TestDriveCompletesEverything(t *testing.T) {
	dev := ssd.MustNew(ssd.PresetG(3))
	now := trace.Precondition(dev, 3, 1.2, 0)
	reqs := trace.Generate(trace.Build, dev.CapacitySectors(), 4, 3000)
	arr := host.OpenLoopArrivals(reqs, simclock.Time(200*time.Microsecond), 5)
	recs := host.Drive(dev, NewNoop(), shift(arr, now))
	if len(recs) != len(arr) {
		t.Fatalf("completed %d of %d", len(recs), len(arr))
	}
	for i, r := range recs {
		if r.Dispatch.Before(r.Arrive) || r.Done.Before(r.Dispatch) {
			t.Fatalf("record %d violates causality: %+v", i, r)
		}
	}
}

func shift(arr []host.Arrival, by simclock.Time) []host.Arrival {
	out := make([]host.Arrival, len(arr))
	for i, a := range arr {
		out[i] = host.Arrival{Req: a.Req, At: a.At + by}
	}
	return out
}

// TestPASBeatsNoopOnTail is the Fig. 13/14 shape test: on a fore-type,
// read-trigger device with a mixed workload, PAS should cut the read
// tail latency relative to noop.
func TestPASBeatsNoopOnTail(t *testing.T) {
	runOne := func(mk func(dev *ssd.Device, now simclock.Time) host.Scheduler) (readTail simclock.Time, m host.Metrics) {
		dev := ssd.MustNew(ssd.PresetG(7))
		now := trace.Precondition(dev, 7, 1.2, 0)
		reqs := trace.Generate(trace.Build, dev.CapacitySectors(), 8, 12000)
		gap, now := host.CalibrateMeanGap(dev, trace.Build, 9, 1500, 0.65, now)
		arr := host.OpenLoopArrivals(reqs, gap, 10)
		recs := host.Drive(dev, mk(dev, now), shift(arr, now))
		reads := host.FilterOp(recs, blockdev.Read)
		return host.PercentileLatency(reads, 0.99), host.Summarize(recs)
	}

	noopTail, noopM := runOne(func(*ssd.Device, simclock.Time) host.Scheduler { return NewNoop() })
	idealTail, _ := runOne(func(dev *ssd.Device, _ simclock.Time) host.Scheduler {
		return NewIdealPAS(func(req blockdev.Request, at simclock.Time, pending int) bool {
			return dev.WouldStallReadAfterWrites(req.LBA, at, pending)
		})
	})
	pasTail, pasM := runOne(func(dev *ssd.Device, now simclock.Time) host.Scheduler {
		feats := &extract.Features{
			BufferBytes:     128 * 1024,
			BufferKind:      extract.BufferFore,
			FlushAlgorithms: []extract.FlushAlgorithm{extract.FlushFull, extract.FlushReadTrigger},
			ReadThreshold:   200 * time.Microsecond,
			WriteThreshold:  200 * time.Microsecond,
			FlushOverhead:   time.Millisecond,
			GCOverhead:      30 * time.Millisecond,
		}
		return NewPAS(core.NewPredictor(feats, core.Params{}))
	})

	if idealTail >= noopTail {
		t.Fatalf("ideal PAS read P99 %v should beat noop %v", idealTail, noopTail)
	}
	if pasTail >= noopTail {
		t.Fatalf("PAS read P99 %v should beat noop %v", pasTail, noopTail)
	}
	// Serving reads first also avoids needless read-trigger flushes, so
	// overall throughput must not collapse.
	if pasM.ThroughputMBps < noopM.ThroughputMBps*0.9 {
		t.Fatalf("PAS throughput %.2f collapsed vs noop %.2f", pasM.ThroughputMBps, noopM.ThroughputMBps)
	}
}

func TestFIOSHoldsReadsDuringWriteBatch(t *testing.T) {
	f := NewFIOS()
	// Start a write batch.
	f.Add(item(1, blockdev.Write, 0))
	it, _ := f.Next(0)
	if it.Req.Op != blockdev.Write {
		t.Fatal("first dispatch should start the write batch")
	}
	// A read arrives mid-batch with more writes queued: held back.
	f.Add(item(2, blockdev.Read, 1))
	f.Add(item(3, blockdev.Write, 1))
	it, _ = f.Next(2)
	if it.Req.Op != blockdev.Read {
		// classic FIOS keeps batching writes while under the limit
		// and reads wait — the assumption under test
		if it.Req.Op != blockdev.Write {
			t.Fatalf("unexpected dispatch %v", it.Req.Op)
		}
	} else {
		t.Fatal("classic FIOS must hold the read during a write batch")
	}
}

func TestFIOSWithPredictorReleasesNLReads(t *testing.T) {
	feats := &extract.Features{
		BufferBytes:     248 * 1024,
		BufferKind:      extract.BufferBack,
		FlushAlgorithms: []extract.FlushAlgorithm{extract.FlushFull},
		ReadThreshold:   200 * time.Microsecond,
		WriteThreshold:  150 * time.Microsecond,
		FlushOverhead:   2 * time.Millisecond,
		GCOverhead:      40 * time.Millisecond,
	}
	pr := core.NewPredictor(feats, core.Params{})
	f := NewFIOSWithPredictor(pr)

	f.Add(item(1, blockdev.Write, 0))
	f.Next(0) // batch starts
	f.Add(item(2, blockdev.Read, 1))
	f.Add(item(3, blockdev.Write, 1))
	// Media idle, buffer far from full: the read is predicted NL and
	// must be released immediately despite the in-progress batch.
	it, _ := f.Next(2)
	if it.Req.Op != blockdev.Read {
		t.Fatalf("predicted-NL read not released, got %v", it.Req.Op)
	}
}

// TestFIOSSSDcheckImprovesReadLatency is the §VII suggestion as a
// measurement: on a back-type device (reads after writes are usually
// fine), lifting FIOS's blanket assumption with predictions improves
// read responsiveness without hurting throughput.
func TestFIOSSSDcheckImprovesReadLatency(t *testing.T) {
	run := func(mk func(dev *ssd.Device) host.Scheduler) (host.Metrics, simclock.Time) {
		dev := ssd.MustNew(ssd.PresetA(19))
		now := trace.Precondition(dev, 19, 1.2, 0)
		reqs := trace.Generate(trace.Build, dev.CapacitySectors(), 20, 10000)
		gap, now := host.CalibrateMeanGap(dev, trace.Build, 21, 1200, 0.5, now)
		arr := host.OpenLoopArrivals(reqs, gap, 22)
		recs := host.Drive(dev, mk(dev), shift(arr, now))
		reads := host.FilterOp(recs, blockdev.Read)
		return host.Summarize(recs), host.PercentileLatency(reads, 0.5)
	}

	_, classicP50 := run(func(*ssd.Device) host.Scheduler { return NewFIOS() })
	_, assistedP50 := run(func(dev *ssd.Device) host.Scheduler {
		feats := &extract.Features{
			BufferBytes:      248 * 1024,
			BufferKind:       extract.BufferBack,
			FlushAlgorithms:  []extract.FlushAlgorithm{extract.FlushFull},
			ReadThreshold:    200 * time.Microsecond,
			WriteThreshold:   150 * time.Microsecond,
			FlushOverhead:    2 * time.Millisecond,
			GCOverhead:       40 * time.Millisecond,
			GCIntervalWrites: []float64{900, 1000, 1100, 1200, 1300},
		}
		return NewFIOSWithPredictor(core.NewPredictor(feats, core.Params{}))
	})

	if assistedP50 >= classicP50 {
		t.Fatalf("SSDcheck-assisted FIOS median read %v should beat classic %v", assistedP50, classicP50)
	}
}

func TestPASRespectsBarriers(t *testing.T) {
	p := NewIdealPAS(func(blockdev.Request, simclock.Time, int) bool { return true })
	w1 := item(1, blockdev.Write, 0)
	w1.Barrier = true // e.g. a journal commit
	p.Add(w1)
	p.Add(item(2, blockdev.Read, 1))
	// The read is predicted HL but sits behind a barrier: order holds.
	it, _ := p.Next(5)
	if it.Seq != 1 {
		t.Fatalf("promotion crossed a barrier: dispatched seq %d first", it.Seq)
	}
	it, _ = p.Next(6)
	if it.Seq != 2 {
		t.Fatalf("read lost after barrier: seq %d", it.Seq)
	}
}

// TestPASFallbackPredictorIsFIFO is the fleet fallback regression: a
// predictor the calibrator has condemned — exactly what a fleet device
// in fallback mode serves from — must never poison scheduling. PAS
// degrades to pure FIFO: the read behind two writes is not promoted.
func TestPASFallbackPredictorIsFIFO(t *testing.T) {
	feats := &extract.Features{
		BufferBytes:     128 * 1024,
		BufferKind:      extract.BufferBack,
		FlushAlgorithms: []extract.FlushAlgorithm{extract.FlushFull},
		ReadThreshold:   200 * time.Microsecond,
		WriteThreshold:  150 * time.Microsecond,
		FlushOverhead:   time.Millisecond,
		GCOverhead:      30 * time.Millisecond,
	}
	pr := core.NewPredictor(feats, core.Params{DisableMinSamples: 50})
	// Condemn it: unpredictable HL stalls until the calibrator's
	// degradation ladder disables prediction.
	req := blockdev.Request{Op: blockdev.Write, LBA: 0, Sectors: 8}
	now := simclock.Time(0)
	for i := 0; i < 5000 && pr.Enabled(); i++ {
		done := now.Add(3 * time.Millisecond)
		pr.Observe(req, now, done)
		now = done.Add(time.Millisecond)
	}
	if pr.Enabled() {
		t.Fatal("predictor failed to disable under hopeless accuracy")
	}

	p := NewPAS(pr)
	p.Add(item(1, blockdev.Write, 0))
	p.Add(item(2, blockdev.Write, 1))
	p.Add(item(3, blockdev.Read, 2))
	for want := uint64(1); want <= 3; want++ {
		it, ok := p.Next(simclock.Time(10))
		if !ok || it.Seq != want {
			t.Fatalf("fallback PAS broke FIFO: got seq %v ok=%v want %d", it.Seq, ok, want)
		}
	}
}
