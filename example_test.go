package ssdcheck_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"ssdcheck"
	"ssdcheck/internal/host"
)

// ExampleDiagnose shows the diagnosis pipeline recovering a black-box
// device's internal features from nothing but request latencies.
func ExampleDiagnose() {
	cfg, _ := ssdcheck.Preset("D", 7) // two internal volumes, bit 17
	dev, _ := ssdcheck.NewSSD(cfg)
	now := ssdcheck.Precondition(dev, 7, 1.3, 0)

	feats, _, err := ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{Seed: 7})
	if err != nil {
		fmt.Println("outside model coverage:", err)
		return
	}
	fmt.Println(feats.TableRow("SSD D"))
	// Output:
	// SSD D     2 (17)   128KB  back    full
}

// ExamplePredictor_PredictReadInOrder shows the query SSD-only PAS
// makes: would this read, served behind the writes queued ahead of it,
// be high-latency? Enough pending writes to wrap the 248 KB buffer
// (62 pages) means the read will meet the drain.
func ExamplePredictor_PredictReadInOrder() {
	cfg, _ := ssdcheck.Preset("A", 7)
	dev, _ := ssdcheck.NewSSD(cfg)
	now := ssdcheck.Precondition(dev, 7, 1.3, 0)
	feats, now, _ := ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{Seed: 7})
	pr := ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})

	read := ssdcheck.Request{Op: ssdcheck.Read, LBA: 999 * 8, Sectors: 8}
	fmt.Println("behind  5 write pages:", pr.PredictReadInOrder(read, now, 5).HL)
	fmt.Println("behind 70 write pages:", pr.PredictReadInOrder(read, now, 70).HL)
	// Output:
	// behind  5 write pages: false
	// behind 70 write pages: true
}

// ExampleEvaluateAccuracy is the whole pipeline on one device: diagnose
// a black-box SSD, build the runtime framework from what diagnosis
// found, then replay a workload that asks for a prediction before each
// request and scores it against the latency class the request met.
func ExampleEvaluateAccuracy() {
	cfg, _ := ssdcheck.Preset("A", 7)
	dev, _ := ssdcheck.NewSSD(cfg)
	now := ssdcheck.Precondition(dev, 7, 1.3, 0)
	feats, now, _ := ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{Seed: 7})
	pr := ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})

	reqs := ssdcheck.GenerateWorkload(ssdcheck.RWMixed, dev.CapacitySectors(), 8, 30000)
	rep := ssdcheck.EvaluateAccuracy(dev, pr, reqs, now)
	fmt.Printf("NL accuracy %.0f%%, HL accuracy %.0f%%\n", 100*rep.NLAccuracy(), 100*rep.HLAccuracy())
	// Output:
	// NL accuracy 98%, HL accuracy 90%
}

// ExampleNewVALVM is the paper's first use case (§IV-A): a read-heavy
// and a write-heavy tenant share SSD D, which has two internal volumes.
// The volume-aware LVM splices each tenant's volume ID into the LBA bit
// diagnosis found, so the writer's flushes and garbage collection stop
// stalling the reader, as they do when Linear-LVM splits the LBA space
// in halves.
func ExampleNewVALVM() {
	cfg, _ := ssdcheck.Preset("D", 21)
	scratch, _ := ssdcheck.NewSSD(cfg) // diagnose one device of the model
	now := ssdcheck.Precondition(scratch, 21, 1.3, 0)
	feats, _, _ := ssdcheck.Diagnose(scratch, now, ssdcheck.DiagnosisOpts{Seed: 21})
	fmt.Println("volume bits:", feats.VolumeBits)

	tenants := []ssdcheck.TenantSpec{
		{Name: "reader", Workload: ssdcheck.Exch, Seed: 31},
		{Name: "writer", Workload: ssdcheck.TPCE, Seed: 32},
	}
	const window = 2 * time.Second
	run := func(mapper func(capacity int64) ssdcheck.VolumeMapper) []ssdcheck.TenantResult {
		dev, _ := ssdcheck.NewSSD(cfg)
		start := ssdcheck.Precondition(dev, 21, 1.3, 0)
		return ssdcheck.RunMultiTenant(dev, mapper(dev.CapacitySectors()), tenants, start, window)
	}
	linear := run(func(c int64) ssdcheck.VolumeMapper { return ssdcheck.NewLinearLVM(c, 2) })
	va := run(func(c int64) ssdcheck.VolumeMapper { return ssdcheck.NewVALVM(c, feats.VolumeBits) })
	fmt.Printf("reader throughput under VA-LVM: %.1fx Linear-LVM's\n",
		va[0].ThroughputMBps(window)/linear[0].ThroughputMBps(window))
	// Output:
	// volume bits: [17]
	// reader throughput under VA-LVM: 5.9x Linear-LVM's
}

// ExampleNewPAS is the paper's SSD-only Prediction-Aware Scheduler
// (§IV-B) on SSD G, whose reads trigger a flush of the write buffer.
// PAS asks the predictor whether the oldest queued read would meet a
// flush and promotes it if so. Every scheduler serves the same open-loop
// arrivals; their read tails are compared with noop's.
func ExampleNewPAS() {
	cfg, _ := ssdcheck.Preset("G", 13)
	scratch, _ := ssdcheck.NewSSD(cfg)
	now := ssdcheck.Precondition(scratch, 13, 1.3, 0)
	feats, _, _ := ssdcheck.Diagnose(scratch, now, ssdcheck.DiagnosisOpts{Seed: 13})

	readP95 := func(s ssdcheck.Scheduler) float64 {
		dev, _ := ssdcheck.NewSSD(cfg)
		start := ssdcheck.Precondition(dev, 13, 1.3, 0)
		reqs := ssdcheck.GenerateWorkload(ssdcheck.Build, dev.CapacitySectors(), 14, 10000)
		gap, start := host.CalibrateMeanGap(dev, ssdcheck.Build, 15, 1200, 0.45, start)
		arr := host.OpenLoopArrivals(reqs, gap, 16)
		for i := range arr {
			arr[i].At += start
		}
		return float64(host.PercentileLatency(host.FilterOp(ssdcheck.Drive(dev, s, arr), ssdcheck.Read), 0.95))
	}
	noop := readP95(ssdcheck.NewNoop())
	for _, s := range []struct {
		name string
		s    ssdcheck.Scheduler
	}{
		{"deadline", ssdcheck.NewDeadline()},
		{"cfq", ssdcheck.NewCFQ()},
		{"pas", ssdcheck.NewPAS(ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{}))},
	} {
		fmt.Printf("%-8s read p95 %.2fx noop's\n", s.name, readP95(s.s)/noop)
	}
	// Output:
	// deadline read p95 0.71x noop's
	// cfq      read p95 0.79x noop's
	// pas      read p95 0.69x noop's
}

// ExampleRunHybrid is the paper's Hybrid PAS (§IV-B): an NVM tier in
// front of SSD C. The baseline sends every write to the NVM; Hybrid PAS
// sends only the writes the predictor calls slow, and the rest go
// straight to the SSD.
func ExampleRunHybrid() {
	cfg, _ := ssdcheck.Preset("C", 17)
	scratch, _ := ssdcheck.NewSSD(cfg)
	now := ssdcheck.Precondition(scratch, 17, 1.3, 0)
	feats, _, _ := ssdcheck.Diagnose(scratch, now, ssdcheck.DiagnosisOpts{Seed: 17})

	run := func(policy ssdcheck.HybridConfig, pr *ssdcheck.Predictor) ssdcheck.HybridResult {
		dev, _ := ssdcheck.NewSSD(cfg)
		start := ssdcheck.Precondition(dev, 17, 1.3, 0)
		hcfg, start := ssdcheck.CalibrateHybrid(dev, ssdcheck.Homes, 18, start, policy)
		reqs := ssdcheck.GenerateWorkload(ssdcheck.Homes, dev.CapacitySectors(), 19, 40000)
		return ssdcheck.RunHybrid(dev, pr, reqs, hcfg, start)
	}
	// DrainFactor 1.3 leaves the NVM's flusher headroom, so its traffic
	// shows each policy's admission decisions (the Fig. 15c method).
	base := run(ssdcheck.HybridConfig{Policy: ssdcheck.HybridBaseline, NVMBytes: 10 << 20, DrainFactor: 1.3, Seed: 3}, nil)
	hybrid := run(ssdcheck.HybridConfig{Policy: ssdcheck.HybridPAS, NVMBytes: 10 << 20, DrainFactor: 1.3, Seed: 3},
		ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{}))
	fmt.Printf("Hybrid PAS writes %.0f%% less to the NVM than the baseline\n",
		100*(1-float64(hybrid.NVMBytesWritten)/float64(base.NVMBytesWritten)))
	// Output:
	// Hybrid PAS writes 20% less to the NVM than the baseline
}

// ExampleNewFleet serves eight mixed-preset devices, one predictor
// each, on four worker shards, driven by one goroutine per device. Each
// device's stream is seeded, so its tallies do not depend on how the
// goroutines interleave.
func ExampleNewFleet() {
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices:   ssdcheck.FleetPresetDevices(8, nil, 42),
		Shards:    4,
		Diagnosis: ssdcheck.FastDiagnosis(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer m.Close()

	var wg sync.WaitGroup
	for i, id := range m.DeviceIDs() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := ssdcheck.GenerateWorkload(ssdcheck.RWMixed, 1<<20, uint64(7+i), 4096)
			batch := make([]ssdcheck.FleetRequest, 128)
			for off := 0; off < len(reqs); off += len(batch) {
				for j, r := range reqs[off : off+len(batch)] {
					batch[j] = ssdcheck.FleetRequest{DeviceID: id, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors}
				}
				m.SubmitBatch(batch)
			}
		}()
	}
	wg.Wait()

	for _, d := range m.Devices() {
		fmt.Printf("%s (%s): %d requests\n", d.ID, d.Device, d.Counters.Requests)
	}
	met := m.Metrics()
	fmt.Printf("fleet: %d requests, %d errors\n", met.Counters.Requests, met.Counters.Errors)
	// Output:
	// ssd-00-A (SSD A): 4096 requests
	// ssd-01-B (SSD B): 4096 requests
	// ssd-02-C (SSD C): 4096 requests
	// ssd-03-D (SSD D): 4096 requests
	// ssd-04-E (SSD E): 4096 requests
	// ssd-05-F (SSD F): 4096 requests
	// ssd-06-G (SSD G): 4096 requests
	// ssd-07-H (SSD H): 4096 requests
	// fleet: 32768 requests, 0 errors
}

// ExampleFleet_HealthLog runs three devices under injected faults.
// "stormy" rides out a latency storm: it degrades, is quarantined on
// timeouts, and recovery probes bring it back. "doomed" fail-stops
// halfway and stays quarantined. "steady" keeps serving throughout,
// because one device's faults never fail another's requests. Faults
// and traffic are seeded, so the health log is the same on every run.
func ExampleFleet_HealthLog() {
	const perDevice = 6000
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices: []ssdcheck.FleetDeviceSpec{
			{ID: "steady", Preset: "A", Seed: 1},
			{ID: "stormy", Preset: "D", Seed: 2, Faults: &ssdcheck.FaultConfig{Seed: 7, Schedules: []ssdcheck.FaultSchedule{
				{Kind: ssdcheck.FaultLatencyStorm, At: perDevice / 3, Count: 40, Factor: 5000},
			}}},
			{ID: "doomed", Preset: "F", Seed: 3, Faults: &ssdcheck.FaultConfig{Seed: 8, Schedules: []ssdcheck.FaultSchedule{
				{Kind: ssdcheck.FaultFailStop, At: perDevice / 2},
			}}},
		},
		Shards:    3,
		Diagnosis: ssdcheck.FastDiagnosis(),
		// Tight enough for the machine to move within a short run.
		Health: ssdcheck.HealthPolicy{
			DegradeAfterTimeouts:    2,
			QuarantineAfterTimeouts: 6,
			ProbeAfterRejections:    32,
			ProbeRequests:           8,
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer m.Close()

	for i, id := range m.DeviceIDs() {
		var served, failed, rejected int
		for _, r := range ssdcheck.GenerateWorkload(ssdcheck.RWMixed, 1<<20, uint64(100+i), perDevice) {
			_, err := m.Submit(id, r.Op, r.LBA, r.Sectors)
			switch {
			case err == nil:
				served++
			case errors.Is(err, ssdcheck.ErrDeviceQuarantined):
				rejected++
			default:
				failed++
			}
		}
		fmt.Printf("%s: served %d, failed %d, rejected %d\n", id, served, failed, rejected)
	}
	for _, dl := range m.HealthLog() {
		for _, tr := range dl.Transitions[:min(2, len(dl.Transitions))] {
			fmt.Printf("%s seq %d: %s -> %s (%s)\n", dl.ID, tr.Seq, tr.From, tr.To, tr.Cause)
		}
	}
	// Output:
	// steady: served 6000, failed 0, rejected 0
	// stormy: served 4881, failed 0, rejected 1119
	// doomed: served 2999, failed 1, rejected 3000
	// stormy seq 2001: healthy -> degraded (consecutive timeouts)
	// stormy seq 2005: degraded -> quarantined (persistent timeouts)
	// doomed seq 3000: healthy -> quarantined (fail-stop error)
	// doomed seq 3032: quarantined -> recovering (recovery probe)
}

// ExampleFleet_DeviceModel follows a device whose behaviour changes
// under its model: after 1,500 requests its write buffer silently
// halves, as after a firmware update. The drift watchdog sees HL
// accuracy collapse and drops the device into fallback (always-NL
// predictions, flagged on each result); a budgeted re-diagnosis then
// reprobes it between live requests and swaps the rebuilt model in.
// No request fails along the way.
func ExampleFleet_DeviceModel() {
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices: []ssdcheck.FleetDeviceSpec{
			{ID: "drifty", Preset: "A", Seed: 11, Faults: &ssdcheck.FaultConfig{Schedules: []ssdcheck.FaultSchedule{
				{Kind: ssdcheck.FaultFeatureShift, At: 1500, Shift: &ssdcheck.FeatureShift{BufferScale: 0.5}},
			}}},
		},
		Diagnosis: ssdcheck.FastDiagnosis(),
		// Tight enough for the lifecycle to run within a short stream.
		Model: ssdcheck.ModelPolicy{MinSamples: 64, FallbackAfter: 128, RediagAfter: 32, RediagBudget: 8},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer m.Close()

	var fallback, failed int
	for _, r := range ssdcheck.GenerateWorkload(ssdcheck.RWMixed, 1<<20, 101, 8000) {
		res, err := m.Submit("drifty", r.Op, r.LBA, r.Sectors)
		if err != nil {
			failed++
		} else if res.Fallback {
			fallback++
		}
	}
	rep, _ := m.DeviceModel("drifty")
	for _, tr := range rep.Transitions {
		fmt.Printf("seq %d: %s -> %s (%s)\n", tr.Seq, tr.From, tr.To, tr.Cause)
	}
	fmt.Printf("%d fallback answers, %d failed requests; %s after %d re-diagnosis\n",
		fallback, failed, rep.ModelHealth, rep.Rediags)
	// Output:
	// seq 4587: calibrated -> drifting (hl accuracy under floor)
	// seq 4715: drifting -> fallback (sustained drift)
	// seq 4747: fallback -> rediagnosing (fallback budget spent)
	// seq 4750: rediagnosing -> calibrated (re-diagnosis pass)
	// 35 fallback answers, 0 failed requests; calibrated after 1 re-diagnosis
}

// ExampleObserver instruments a fleet with one metrics registry and a
// tracer that records every request, then reads both back: a Prometheus
// scrape rendered into a buffer, and the spans of the request the
// predictor missed worst, rendered for chrome://tracing. Sampling is
// seeded, so the same requests are traced on every run.
func ExampleObserver() {
	reg := ssdcheck.NewMetricsRegistry()
	tracer := ssdcheck.NewTracer(42, 1, 512)
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices: []ssdcheck.FleetDeviceSpec{
			{ID: "ssd-a", Preset: "A", Seed: 1},
			{ID: "ssd-d", Preset: "D", Seed: 2},
			{ID: "flaky", Preset: "B", Seed: 4, Faults: &ssdcheck.FaultConfig{Seed: 9, Schedules: []ssdcheck.FaultSchedule{
				{Kind: ssdcheck.FaultTransient, Prob: 0.02},
			}}},
		},
		Shards:    2,
		Diagnosis: ssdcheck.FastDiagnosis(),
		Registry:  reg,
		Recorder:  ssdcheck.Observer{Reg: reg, Tr: tracer},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer m.Close()
	for i, id := range m.DeviceIDs() {
		for _, r := range ssdcheck.GenerateWorkload(ssdcheck.Build, 1<<20, uint64(300+i), 4000) {
			m.Submit(id, r.Op, r.LBA, r.Sectors)
		}
	}
	var scrape bytes.Buffer
	reg.WritePrometheus(&scrape)
	for _, line := range strings.Split(scrape.String(), "\n") {
		if strings.HasPrefix(line, `ssdcheck_request_retries_total{device="flaky"}`) ||
			strings.HasPrefix(line, "ssdcheck_fleet_devices ") {
			fmt.Println(line)
		}
	}

	traces := tracer.Traces()
	var worst *ssdcheck.RequestTrace
	for i := range traces {
		if rt := &traces[i]; rt.Mispredicted() && rt.ObservedHL && (worst == nil || rt.Latency > worst.Latency) {
			worst = rt
		}
	}
	fmt.Printf("traced %d requests; worst HL surprise on %s, spans:", len(traces), worst.Device)
	for _, sp := range worst.Spans {
		fmt.Print(" ", sp.Name)
	}
	var chrome bytes.Buffer
	ssdcheck.WriteChromeTrace(&chrome, []ssdcheck.RequestTrace{*worst})
	fmt.Printf("\nchrome trace: %d events\n", strings.Count(chrome.String(), `"ph":`))
	// Output:
	// ssdcheck_fleet_devices 3
	// ssdcheck_request_retries_total{device="flaky"} 93
	// traced 1536 requests; worst HL surprise on ssd-d, spans: queue route predict submit calibrate
	// chrome trace: 7 events
}

// ExampleNewClusterHarness runs three nodes behind one coordinator.
// Node-2's heartbeats go silent for six rounds: the health machine
// walks it to quarantined and its devices fail over to the survivors
// with their models intact. When the heartbeats return it walks back to
// healthy and the ring moves its devices home. Everything is seeded, so
// both logs are the same on every run.
func ExampleNewClusterHarness() {
	h, err := ssdcheck.NewClusterHarness(ssdcheck.ClusterHarnessConfig{
		Nodes:   3,
		Devices: ssdcheck.FleetPresetDevices(6, nil, 42),
		Node:    ssdcheck.FleetConfig{Shards: 2, Diagnosis: ssdcheck.FastDiagnosis()},
		Faults: &ssdcheck.NodeFaultPlan{Seed: 7, Schedules: []ssdcheck.NodeFaultSchedule{
			{Kind: ssdcheck.NodeFaultHeartbeatLoss, Node: "node-2", At: 2, Rounds: 6},
		}},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer h.Close()
	c := h.Coordinator()

	var batch []ssdcheck.FleetRequest // one write per device
	for _, e := range c.PlacementLog() {
		batch = append(batch, ssdcheck.FleetRequest{DeviceID: e.Device, Op: ssdcheck.Write, LBA: int64(len(batch)+1) * 4096, Sectors: 8})
	}
	failed := 0
	for round := 0; round < 12; round++ {
		for i := 0; i < 25; i++ {
			res, _ := c.Submit(batch)
			for _, r := range res {
				if r.Err != nil {
					failed++
				}
			}
		}
		c.Tick()
	}

	for _, tr := range c.Transitions() {
		fmt.Printf("round %d: %s %s -> %s (%s)\n", tr.Round, tr.Node, tr.From, tr.To, tr.Cause)
	}
	for _, e := range c.PlacementLog() {
		if e.Cause != "bootstrap" {
			fmt.Printf("round %d: %s %s -> %s (%s)\n", e.Round, e.Device, e.From, e.To, e.Cause)
		}
	}
	fmt.Printf("%d requests served, %d failed\n", c.Metrics().Counters.Requests, failed)
	// Output:
	// round 3: node-2 healthy -> degraded (missed heartbeats)
	// round 5: node-2 degraded -> quarantined (persistent heartbeat loss)
	// round 8: node-2 quarantined -> recovering (heartbeat restored)
	// round 9: node-2 recovering -> healthy (rejoin)
	// round 5: ssd-00-A node-2 -> node-0 (failover)
	// round 5: ssd-01-B node-2 -> node-1 (failover)
	// round 5: ssd-02-C node-2 -> node-0 (failover)
	// round 5: ssd-05-F node-2 -> node-0 (failover)
	// round 9: ssd-00-A node-0 -> node-2 (rejoin)
	// round 9: ssd-01-B node-1 -> node-2 (rejoin)
	// round 9: ssd-02-C node-0 -> node-2 (rejoin)
	// round 9: ssd-05-F node-0 -> node-2 (rejoin)
	// 1800 requests served, 0 failed
}

// ExampleNewECVolume stripes a 3+2 Reed-Solomon volume over six fleet
// devices. Reads steer around members the predictor calls slow by
// decoding from idle shards, and parity writes wait for the slow
// windows it announces. One member takes a latency storm and another
// fail-stops, yet every read returns the value last written.
func ExampleNewECVolume() {
	specs := ssdcheck.FleetPresetDevices(6, nil, 42)
	ids := make([]string, len(specs))
	for i := range specs {
		ids[i] = specs[i].ID
	}
	specs[1].Faults = &ssdcheck.FaultConfig{Schedules: []ssdcheck.FaultSchedule{
		{Kind: ssdcheck.FaultLatencyStorm, At: 120, Factor: 40, Count: 80},
	}}
	specs[4].Faults = &ssdcheck.FaultConfig{Schedules: []ssdcheck.FaultSchedule{
		{Kind: ssdcheck.FaultFailStop, At: 200},
	}}
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices: specs, Shards: 2, PreconditionFactor: 1.2, Diagnosis: ssdcheck.FastDiagnosis(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer m.Close()
	v, err := ssdcheck.NewECVolume(m, ssdcheck.ECVolumeConfig{
		ID: "demo", Devices: ids, Data: 3, Parity: 2, Stripes: 16, Seed: 42, Predictive: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Track each chunk's version, to check every read against the
	// fingerprint the volume must return.
	version := make([]uint32, v.Chunks())
	verified := func(chunk int64, res ssdcheck.ECReadResult, err error) bool {
		return err == nil && res.Value == ssdcheck.ECFingerprint(42, uint64(chunk), version[chunk])
	}
	rng := rand.New(rand.NewSource(99))
	wrong := 0
	for i := 0; i < 2000; i++ {
		chunk := int64(rng.Intn(int(v.Chunks())))
		if rng.Float64() < 0.7 {
			if res, err := v.Read(chunk); !verified(chunk, res, err) {
				wrong++
			}
		} else if _, err := v.Write(chunk); err == nil {
			version[chunk]++
		}
	}
	v.Flush()
	st := v.Status()
	fmt.Printf("%d reads, %d wrong, %d steered around a predicted-HL member\n", st.Reads, wrong, st.SteeredReads)

	ok, decoded := 0, 0
	for c := int64(0); c < v.Chunks(); c++ {
		res, err := v.Read(c)
		if verified(c, res, err) {
			ok++
		}
		if res.Mode == ssdcheck.ECReadReconstructed {
			decoded++
		}
	}
	fmt.Printf("after the fail-stop: %d of %d chunks verified, %d decoded from survivors\n", ok, v.Chunks(), decoded)
	// Output:
	// 1395 reads, 0 wrong, 305 steered around a predicted-HL member
	// after the fail-stop: 48 of 48 chunks verified, 9 decoded from survivors
}
