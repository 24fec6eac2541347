package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/trace"
)

// tightHealth is a health policy with small streaks so unit tests
// reach every state quickly.
func tightHealth() HealthPolicy {
	return HealthPolicy{
		DegradeAfterErrors:    2,
		QuarantineAfterErrors: 4,
		ProbeAfterRejections:  8,
		ProbeRequests:         4,
		RecoverAfterOK:        4,
	}
}

// driveSequential pushes n per-device requests through the fleet one
// interleaved batch at a time (per-device order preserved) and returns
// every result.
func driveSequential(t *testing.T, m *Manager, strs map[string][]blockdev.Request, ids []string, n int) []Result {
	t.Helper()
	var all []Result
	for step := 0; step < n; step++ {
		batch := make([]Request, 0, len(ids))
		for _, id := range ids {
			r := strs[id][step]
			batch = append(batch, Request{DeviceID: id, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
		}
		res, err := m.SubmitBatch(batch)
		if err != nil {
			t.Fatalf("step %d: batch-level error: %v", step, err)
		}
		all = append(all, res...)
	}
	return all
}

// TestRetryClearsTransients: a short burst of injected transients is
// absorbed entirely by the retry loop — no failed results, no health
// transitions, just retry counters.
func TestRetryClearsTransients(t *testing.T) {
	devs := []DeviceSpec{{
		ID: "r", Preset: "A", Seed: 5,
		Faults: &faults.Config{Schedules: []faults.Schedule{{Kind: faults.Transient, At: 5, Count: 2}}},
	}}
	m, err := New(testConfig(devs, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for i := 0; i < 10; i++ {
		res, err := m.Submit("r", blockdev.Write, int64(i*4096), 8)
		if err != nil {
			t.Fatalf("request %d failed despite retry budget: %v", i, err)
		}
		if i == 4 && res.Retries != 2 {
			t.Errorf("request %d consumed %d retries, want 2", i, res.Retries)
		}
	}
	snap, _ := m.Device("r")
	if snap.Health != Healthy || snap.Counters.Errors != 0 || snap.Counters.Retries != 2 {
		t.Errorf("snapshot after absorbed transients: health=%v errors=%d retries=%d",
			snap.Health, snap.Counters.Errors, snap.Counters.Retries)
	}
	if hr, _ := m.DeviceHealth("r"); len(hr.Transitions) != 0 {
		t.Errorf("unexpected health transitions: %+v", hr.Transitions)
	}
}

// TestRetryDelaySchedule pins the backoff schedule: 200µs doubling per
// retry, capped at 5ms (also past shift overflow), with up to half of
// each delay jittered away by exactly one RNG draw per call.
func TestRetryDelaySchedule(t *testing.T) {
	rng, ref := simclock.NewRNG(11), simclock.NewRNG(11)
	for _, tc := range []struct {
		retries int
		base    time.Duration
	}{
		{0, 200 * time.Microsecond},
		{1, 400 * time.Microsecond},
		{4, 3200 * time.Microsecond},
		{5, 5 * time.Millisecond},
		{70, 5 * time.Millisecond},
	} {
		want := time.Duration(float64(tc.base) * (1 - 0.5*ref.Float64()))
		if got := (RetryPolicy{}).Delay(tc.retries, rng); got != want {
			t.Errorf("Delay(%d) = %v, want %v", tc.retries, got, want)
		}
	}
}

// TestQuarantineAndRecovery walks the full state machine: persistent
// errors degrade then quarantine the device, rejected requests trigger
// recovery probes, and once the fault window passes a probe brings the
// device back to healthy service.
func TestQuarantineAndRecovery(t *testing.T) {
	devs := []DeviceSpec{{
		ID: "q", Preset: "A", Seed: 9,
		Faults: &faults.Config{Schedules: []faults.Schedule{{Kind: faults.Transient, At: 10, Count: 10}}},
	}}
	cfg := testConfig(devs, 1)
	cfg.Retry = RetryPolicy{MaxRetries: -1} // every error surfaces
	cfg.Health = tightHealth()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var served, failed, rejected int
	for i := 0; i < 150; i++ {
		res, _ := m.Submit("q", blockdev.Write, int64(i%512)*4096, 8)
		switch {
		case res.Err == nil:
			served++
		case errors.Is(res.Err, ErrDeviceQuarantined):
			rejected++
		case errors.Is(res.Err, blockdev.ErrTransient):
			failed++
		default:
			t.Fatalf("request %d: unexpected error class: %v", i, res.Err)
		}
	}
	if served+failed+rejected != 150 {
		t.Fatalf("lost requests: served=%d failed=%d rejected=%d", served, failed, rejected)
	}

	hr, ok := m.DeviceHealth("q")
	if !ok {
		t.Fatal("no health report")
	}
	if hr.Health != Healthy {
		t.Fatalf("device did not recover: %v (transitions %+v)", hr.Health, hr.Transitions)
	}
	if hr.Probes == 0 {
		t.Error("no recovery probes ran")
	}
	// The log must walk healthy → degraded → quarantined, visit
	// recovering, and end with a probe pass back to healthy.
	tr := hr.Transitions
	if len(tr) < 4 {
		t.Fatalf("transition log too short: %+v", tr)
	}
	if tr[0].From != Healthy || tr[0].To != Degraded {
		t.Errorf("first transition %+v, want healthy→degraded", tr[0])
	}
	if tr[1].From != Degraded || tr[1].To != Quarantined {
		t.Errorf("second transition %+v, want degraded→quarantined", tr[1])
	}
	last := tr[len(tr)-1]
	if last.From != Recovering || last.To != Healthy || last.Cause != "probe pass" {
		t.Errorf("last transition %+v, want recovering→healthy on probe pass", last)
	}
	snap, _ := m.Device("q")
	if snap.Counters.Rejected == 0 || snap.Counters.Probes == 0 {
		t.Errorf("resilience counters empty: %+v", snap.Counters)
	}
}

// TestStuckBusyQuarantinesOnTimeouts: timeout-class latencies (not
// errors) also walk the device out of service.
func TestStuckBusyQuarantinesOnTimeouts(t *testing.T) {
	devs := []DeviceSpec{{
		ID: "s", Preset: "A", Seed: 13,
		Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.StuckBusy, At: 5, Count: 50, Pin: time.Second},
		}},
	}}
	cfg := testConfig(devs, 1)
	cfg.Health = HealthPolicy{
		DegradeAfterTimeouts:    2,
		QuarantineAfterTimeouts: 4,
		ProbeAfterRejections:    -1, // stay quarantined for the assertion
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var timeouts int
	for i := 0; i < 40; i++ {
		res, _ := m.Submit("s", blockdev.Read, int64(i)*4096, 8)
		if res.TimedOut {
			timeouts++
		}
	}
	snap, _ := m.Device("s")
	if snap.Health != Quarantined {
		t.Errorf("health %v after timeout streak, want quarantined", snap.Health)
	}
	if timeouts == 0 || snap.Counters.Timeouts != int64(timeouts) {
		t.Errorf("timeouts: results=%d counter=%d", timeouts, snap.Counters.Timeouts)
	}
}

// TestFailStopAcceptance is the issue's acceptance scenario: a
// 4-device fleet with p=0.01 transient errors everywhere and one
// fail-stop device completes a 10k-per-device run; the failed device
// ends quarantined, the survivors keep serving with accuracy within
// 2pp of a fault-free run, and no batch-level error ever surfaces.
func TestFailStopAcceptance(t *testing.T) {
	const n = 10000
	if testing.Short() {
		t.Skip("acceptance run is long")
	}
	specs := func(withFaults bool) []DeviceSpec {
		devs := testSpecs() // dev-a, dev-d, dev-f, dev-h
		if !withFaults {
			return devs
		}
		for i := range devs {
			fc := &faults.Config{
				Seed:      77 + uint64(i),
				Schedules: []faults.Schedule{{Kind: faults.Transient, Prob: 0.01}},
			}
			if devs[i].ID == "dev-h" {
				fc.Schedules = append(fc.Schedules, faults.Schedule{Kind: faults.FailStop, At: 2000})
			}
			devs[i].Faults = fc
		}
		return devs
	}

	strs := streams(testSpecs(), n)
	ids := []string{"dev-a", "dev-d", "dev-f", "dev-h"}

	run := func(withFaults bool) map[string]DeviceSnapshot {
		m, err := New(testConfig(specs(withFaults), 2))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		results := driveSequential(t, m, strs, ids, n)
		out := map[string]DeviceSnapshot{}
		for _, snap := range m.Devices() {
			out[snap.ID] = snap
		}
		// Healthy devices never see a per-request error.
		for _, res := range results {
			if res.Err != nil && res.DeviceID != "dev-h" {
				t.Fatalf("healthy device %s returned error: %v", res.DeviceID, res.Err)
			}
		}
		return out
	}

	faulty := run(true)
	clean := run(false)

	if h := faulty["dev-h"].Health; h != Quarantined {
		t.Errorf("fail-stop device ends %v, want quarantined", h)
	}
	for _, id := range []string{"dev-a", "dev-d", "dev-f"} {
		f, c := faulty[id], clean[id]
		if f.Health != Healthy {
			t.Errorf("%s ends %v, want healthy", id, f.Health)
		}
		if f.Counters.Requests != n {
			t.Errorf("%s served %d of %d requests", id, f.Counters.Requests, n)
		}
		if dHL := math.Abs(f.HLAccuracy - c.HLAccuracy); dHL > 0.02 {
			t.Errorf("%s HL accuracy drifted %.4f under faults (%.4f vs %.4f)", id, dHL, f.HLAccuracy, c.HLAccuracy)
		}
		if dNL := math.Abs(f.NLAccuracy - c.NLAccuracy); dNL > 0.02 {
			t.Errorf("%s NL accuracy drifted %.4f under faults (%.4f vs %.4f)", id, dNL, f.NLAccuracy, c.NLAccuracy)
		}
	}
	// The dead device is out of the accuracy aggregate but on the
	// unhealthy gauge — checked via a fresh manager in the faulty run
	// is gone, so re-derive from snapshots instead.
	if faulty["dev-h"].Counters.Rejected == 0 {
		t.Error("fail-stop device bounced no requests")
	}
}

// TestHealthLogDeterminism: same seeds, schedules and per-device
// streams ⇒ byte-identical health-transition logs, across repeated
// runs and across shard counts 1 vs 4.
func TestHealthLogDeterminism(t *testing.T) {
	const n = 2000
	specs := func() []DeviceSpec {
		devs := testSpecs()
		devs[0].Faults = &faults.Config{Seed: 1, Schedules: []faults.Schedule{
			{Kind: faults.Transient, Prob: 0.02},
		}}
		devs[1].Faults = &faults.Config{Seed: 2, Schedules: []faults.Schedule{
			{Kind: faults.StuckBusy, At: 500, Count: 200},
		}}
		devs[2].Faults = &faults.Config{Seed: 3, Schedules: []faults.Schedule{
			{Kind: faults.FailStop, At: 800},
		}}
		devs[3].Faults = &faults.Config{Seed: 4, Schedules: []faults.Schedule{
			{Kind: faults.Drift, At: 300, Factor: 1.3},
			{Kind: faults.Transient, Prob: 0.01},
		}}
		return devs
	}
	strs := streams(testSpecs(), n)
	ids := []string{"dev-a", "dev-d", "dev-f", "dev-h"}

	healthLog := func(shards int) []byte {
		cfg := testConfig(specs(), shards)
		cfg.Retry = RetryPolicy{MaxRetries: -1}
		cfg.Health = tightHealth()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		driveSequential(t, m, strs, ids, n)
		b, err := json.MarshalIndent(m.HealthLog(), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	base := healthLog(1)
	if !bytes.Contains(base, []byte("quarantined")) {
		t.Fatalf("schedule produced no quarantine — test is vacuous:\n%s", base)
	}
	for _, shards := range []int{1, 4} {
		if got := healthLog(shards); !bytes.Equal(base, got) {
			t.Errorf("health log diverges at shards=%d\nbase: %s\ngot:  %s", shards, base, got)
		}
	}
}

// TestCloseConcurrent: Close is idempotent and safe under concurrent
// callers racing each other and in-flight submitters; every Close
// returns only after the fleet drained. Run with -race.
func TestCloseConcurrent(t *testing.T) {
	cfg := testConfig([]DeviceSpec{{ID: "c", Preset: "A", Seed: 3}}, 1)
	cfg.Health.ProbeInterval = time.Millisecond // exercise prober shutdown
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reqs := trace.Generate(trace.RWMixed, 1<<20, 8, 400)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, r := range reqs[g*100 : (g+1)*100] {
				if _, err := m.SubmitBatch([]Request{{DeviceID: "c", Op: r.Op, LBA: r.LBA, Sectors: r.Sectors}}); err != nil && !errors.Is(err, ErrManagerClosed) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close()
			// After any Close returns the fleet must reject work.
			if _, err := m.SubmitBatch([]Request{{DeviceID: "c", Op: blockdev.Read}}); !errors.Is(err, ErrManagerClosed) {
				t.Errorf("submit after Close: %v", err)
			}
		}()
	}
	wg.Wait()
	m.Close() // and again, for good measure
}

// TestPerRequestErrors: bad addressing fails only its own batch entry,
// with typed errors, while the rest of the batch is served.
func TestPerRequestErrors(t *testing.T) {
	m, err := New(testConfig([]DeviceSpec{{ID: "ok", Preset: "A", Seed: 21}}, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	res, err := m.SubmitBatch([]Request{
		{DeviceID: "ghost", Op: blockdev.Read, LBA: 0, Sectors: 8},
		{DeviceID: "ok", Op: blockdev.Write, LBA: 4096, Sectors: 8},
		{DeviceID: "ok", Op: blockdev.Read, LBA: -4, Sectors: 8},
	})
	if err != nil {
		t.Fatalf("batch-level error for per-request problems: %v", err)
	}
	if !errors.Is(res[0].Err, ErrUnknownDevice) || res[0].Error == "" {
		t.Errorf("unknown device: %+v", res[0])
	}
	if res[1].Err != nil || res[1].Latency <= 0 {
		t.Errorf("healthy entry not served: %+v", res[1])
	}
	if res[2].Err == nil {
		t.Errorf("negative LBA accepted: %+v", res[2])
	}
}
