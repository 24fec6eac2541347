// Zero-allocation guards for the simulator's hot path. The experiment
// suite submits hundreds of millions of requests per run; the paper's
// "prediction costs nanoseconds" claim (and the suite's wall-clock)
// depend on the steady-state submit and predict paths never touching
// the heap.
package ssdcheck_test

import (
	"testing"
	"time"

	"ssdcheck"
	"ssdcheck/internal/obs"
)

// skipUnderRace skips a test that a -race build cannot serve: an
// AllocsPerRun guard, because the race detector allocates on its own
// account, or a check with no concurrency for the detector to watch.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("skipped under -race: AllocsPerRun counts the detector's own allocations, and a check with no concurrency gains nothing")
	}
}

// TestSubmitTaggedZeroAlloc pins single-region reads and writes on a
// preconditioned device to zero allocations per request. The write path
// includes its periodic buffer flushes and the GC they provoke: buffer,
// free pool and mapping arrays are all preallocated, so even those
// amortize to nothing.
func TestSubmitTaggedZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	cfg, err := ssdcheck.Preset("A", 11)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ssdcheck.NewSSD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := ssdcheck.Precondition(dev, 11, 1.2, 0)

	reqs := ssdcheck.GenerateWorkload(ssdcheck.RWMixed, dev.CapacitySectors(), 12, 4096)
	var reads, writes []ssdcheck.Request
	for _, r := range reqs {
		switch r.Op {
		case ssdcheck.Read:
			reads = append(reads, r)
		case ssdcheck.Write:
			writes = append(writes, r)
		}
	}

	submit := func(stream []ssdcheck.Request) func() {
		i := 0
		return func() {
			now, _ = dev.SubmitTagged(stream[i%len(stream)], now)
			i++
		}
	}
	if n := testing.AllocsPerRun(2000, submit(reads)); n != 0 {
		t.Errorf("read SubmitTagged allocates %.2f objects per request, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, submit(writes)); n != 0 {
		t.Errorf("write SubmitTagged allocates %.2f objects per request, want 0", n)
	}
}

// allocFleet stands up a small fleet for the ingress alloc guards.
func allocFleet(t *testing.T, nDevices, shards int) *ssdcheck.Fleet {
	t.Helper()
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices:            ssdcheck.FleetPresetDevices(nDevices, []string{"A"}, 77),
		Shards:             shards,
		PreconditionFactor: 1.2,
		Diagnosis:          ssdcheck.FastDiagnosis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestFleetSubmitZeroAlloc pins the fleet's submit→result round trips
// to the pooled-ingress contract: the single-request fast path and the
// SubmitBatchInto batch path allocate nothing in steady state (the
// operation, fan-out table and result storage all come from pools and
// recycle after the round trip), and the convenience SubmitBatch pays
// exactly its documented result-slice allocation and nothing more. A
// regression here fails tests instead of only drifting B/op in the
// checked-in benchmarks. Both single- and multi-shard fleets are
// pinned, so the per-shard fan-out stays on the hook too.
func TestFleetSubmitZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct{ devices, shards int }{
		{1, 1},
		{4, 2},
	} {
		m := allocFleet(t, tc.devices, tc.shards)
		ids := m.DeviceIDs()

		i := 0
		if n := testing.AllocsPerRun(500, func() {
			if _, err := m.Submit(ids[i%len(ids)], ssdcheck.Read, int64(i%1000)*8, 8); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%d devices / %d shards: Submit allocates %.2f objects per request, want 0",
				tc.devices, tc.shards, n)
		}

		batch := make([]ssdcheck.FleetRequest, 16)
		out := make([]ssdcheck.FleetResult, len(batch))
		for j := range batch {
			batch[j] = ssdcheck.FleetRequest{
				DeviceID: ids[j%len(ids)], Op: ssdcheck.Read, LBA: int64(j) * 8, Sectors: 8,
			}
		}
		if n := testing.AllocsPerRun(500, func() {
			if err := m.SubmitBatchInto(batch, out); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%d devices / %d shards: SubmitBatchInto allocates %.2f objects per batch, want 0",
				tc.devices, tc.shards, n)
		}

		if n := testing.AllocsPerRun(500, func() {
			if _, err := m.SubmitBatch(batch); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%d devices / %d shards: SubmitBatch allocates %.2f objects per batch, want only the result slice",
				tc.devices, tc.shards, n)
		}
	}
}

// TestVolumeOpsZeroAlloc pins a healthy predictive 3+2 erasure-coded
// volume's Read and Write to zero allocations once warm: the steering
// view is refilled in place, fleet results land in the volume's own
// buffer, the donor ranking sorts without reflection and a decode
// reuses its slot set's cached inverse. The measured reads must include
// both direct and steered ones, so the reconstruct path is on the hook
// too; the writes include the parity flushes the scheduler runs after
// them.
func TestVolumeOpsZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	m := allocFleet(t, 6, 2)
	v, err := ssdcheck.NewECVolume(m, ssdcheck.ECVolumeConfig{
		ID: "alloc", Devices: m.DeviceIDs(), Data: 3, Parity: 2,
		Stripes: 64, Seed: 77, Predictive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks := v.Chunks()
	i := int64(0)
	read := func() {
		if _, err := v.Read(i * 7 % chunks); err != nil {
			t.Fatal(err)
		}
		i++
	}
	write := func() {
		if _, err := v.Write(i * 5 % chunks); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Warm-up: every scratch buffer grows to its largest shape and the
	// decode cache meets the slot sets the donor ranking produces.
	for n := 0; n < 4000; n++ {
		if n%3 == 0 {
			write()
		} else {
			read()
		}
	}

	before := v.Status()
	if n := testing.AllocsPerRun(2000, read); n != 0 {
		t.Errorf("Read allocates %.2f objects per op, want 0", n)
	}
	after := v.Status()
	if after.DirectReads == before.DirectReads || after.SteeredReads == before.SteeredReads {
		t.Errorf("measured reads were %d direct and %d steered; the guard needs both",
			after.DirectReads-before.DirectReads, after.SteeredReads-before.SteeredReads)
	}
	if n := testing.AllocsPerRun(2000, write); n != 0 {
		t.Errorf("Write allocates %.2f objects per op, want 0", n)
	}
	if s := v.Status(); s.ReadErrors+s.WriteErrors != 0 {
		t.Errorf("healthy volume failed %d reads and %d writes", s.ReadErrors, s.WriteErrors)
	}
}

// TestPredictZeroAlloc pins Predictor.Predict to zero allocations.
func TestPredictZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	cfg, err := ssdcheck.Preset("A", 11)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := ssdcheck.NewSSD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := ssdcheck.Precondition(dev, 11, 1.2, 0)
	feats, now, err := ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{
		Seed: 11, MinBit: 16, MaxBit: 18, AllocWritesPerBit: 1500, GCIntervals: 12,
		Thinktimes: []time.Duration{500 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})
	req := ssdcheck.Request{Op: ssdcheck.Read, LBA: 4096, Sectors: 8}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		_ = pr.Predict(req, now+ssdcheck.Time(i))
		i++
	}); n != 0 {
		t.Errorf("Predict allocates %.2f objects per call, want 0", n)
	}
}

// gcEvents counts the predictor's GC confirmations.
type gcEvents struct {
	obs.Recorder
	n int
}

func (g *gcEvents) Event(name, _ string) {
	if name == "gc_confirmed" {
		g.n++
	}
}

// TestPredictObserveAgedZeroAlloc pins the steady-state predict →
// submit → observe cycle to zero allocations: an aged preset-F
// predictor served 4096-request cycles that include GC confirmations,
// each of which inserts into the GC interval history and re-derives the
// detector's arming threshold. Only the history's amortised slice growth
// may touch the heap, which rounds to nothing per cycle.
func TestPredictObserveAgedZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	dev, pr, now := agedPredictor(t, 300_000)
	gc := &gcEvents{Recorder: obs.Nop()}
	pr.SetRecorder(gc, "F")
	reqs := ssdcheck.GenerateWorkload(ssdcheck.RWMixed, dev.CapacitySectors(), 43, 4096)
	if n := testing.AllocsPerRun(5, func() {
		for _, req := range reqs {
			_ = pr.Predict(req, now)
			done := dev.Submit(req, now)
			pr.Observe(req, now, done)
			now = done
		}
	}); n != 0 {
		t.Errorf("aged Predict+Observe allocates %.0f objects per 4096-request cycle, want 0", n)
	}
	if gc.n == 0 {
		t.Fatal("no GC confirmed during the measured cycles; the guard did not cover history updates")
	}
}
