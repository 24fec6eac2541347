package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/obs"
)

// obsConfig attaches a fresh registry and a tracer at the given sample
// rate to the standard test config.
func obsConfig(devs []DeviceSpec, shards int, rate float64) (Config, *obs.Tracer) {
	cfg := testConfig(devs, shards)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(99, rate, 128)
	cfg.Registry = reg
	cfg.Recorder = obs.Observer{Reg: reg, Tr: tr}
	return cfg, tr
}

// TestTraceDeterminism: with the same seed and sample rate, the
// exported trace bytes must be identical across repeated runs and
// across shard counts — the tracer's core promise (spans live on the
// per-device virtual clocks, the sampler is a pure hash, and rings are
// per device, so shard interleaving cannot leak into the export).
func TestTraceDeterminism(t *testing.T) {
	const n = 600
	devs := testSpecs()
	strs := streams(devs, n)

	for _, rate := range []float64{1, 0.2} {
		var base []byte
		for _, shards := range []int{1, 1, 3} {
			cfg, tr := obsConfig(devs, shards, rate)
			runInterleaved(t, cfg, strs, n)
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() < 100 {
				t.Fatalf("rate %v: export suspiciously small (%d bytes)", rate, buf.Len())
			}
			if base == nil {
				base = buf.Bytes()
				continue
			}
			if !bytes.Equal(base, buf.Bytes()) {
				t.Errorf("rate %v shards %d: trace export differs from baseline", rate, shards)
			}
		}
	}
}

// TestTraceContents checks the spans a traced fleet request records:
// every successful request carries the full queue → route → predict →
// submit → calibrate life, with monotone virtual-clock stamps.
func TestTraceContents(t *testing.T) {
	const n = 200
	devs := testSpecs()[:2]
	strs := streams(devs, n)
	cfg, tr := obsConfig(devs, 2, 1)
	runInterleaved(t, cfg, strs, n)

	traces := tr.Traces()
	if len(traces) == 0 {
		t.Fatal("rate-1 tracer recorded nothing")
	}
	for _, rt := range traces {
		want := []string{"queue", "route", "predict", "submit", "calibrate"}
		if len(rt.Spans) != len(want) {
			t.Fatalf("trace %s/%d spans = %+v, want names %v", rt.Device, rt.Seq, rt.Spans, want)
		}
		for i, sp := range rt.Spans {
			if sp.Name != want[i] {
				t.Fatalf("trace %s/%d span %d = %q, want %q", rt.Device, rt.Seq, i, sp.Name, want[i])
			}
			if sp.End < sp.Start {
				t.Fatalf("span %+v runs backwards", sp)
			}
			if i > 0 && sp.Start < rt.Spans[i-1].Start {
				t.Fatalf("trace %s/%d: span %q starts before its predecessor", rt.Device, rt.Seq, sp.Name)
			}
		}
		if sub := rt.Spans[3]; sub.End.Sub(sub.Start) != rt.Latency {
			t.Fatalf("trace %s/%d: submit span %v does not match latency %v",
				rt.Device, rt.Seq, sub.End.Sub(sub.Start), rt.Latency)
		}
	}
}

// TestFleetRegistrySeries: after traffic, the shared registry exposes
// the per-device and fleet-level series the daemon scrapes.
func TestFleetRegistrySeries(t *testing.T) {
	const n = 150
	devs := testSpecs()[:2]
	strs := streams(devs, n)
	cfg, _ := obsConfig(devs, 1, 0)

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for step := 0; step < n; step++ {
		batch := make([]Request, 0, len(devs))
		for _, d := range devs {
			r := strs[d.ID][step]
			batch = append(batch, Request{DeviceID: d.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
		}
		if _, err := m.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`ssdcheck_requests_total{device="dev-a",op=`,
		`ssdcheck_predicted_hl_total{device="dev-a"}`,
		`ssdcheck_observed_hl_total{device="dev-d"}`,
		`ssdcheck_request_latency_seconds_bucket{device="dev-a",le=`,
		`ssdcheck_request_latency_seconds_count{device="dev-a"}`,
		`ssdcheck_device_health{device="dev-a"} 0`,
		`ssdcheck_device_clock_ns{device="dev-a"}`,
		"ssdcheck_fleet_devices 2",
		"ssdcheck_fleet_shards 1",
		"ssdcheck_fleet_unhealthy_devices 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry output missing %q", want)
		}
	}
}

// TestSnapshotsMatchRegistry: the JSON snapshot and the registry
// series are two views of the same tallies. The scrape comes straight
// after traffic, with no read call before it, and every per-device
// tally, the latency count and sum and the fleet gauges must already
// read what Device, the health and model reports and Metrics report.
func TestSnapshotsMatchRegistry(t *testing.T) {
	const n = 100
	devs := testSpecs()[:2]
	devs[1].Faults = &faults.Config{Seed: 3, Schedules: []faults.Schedule{{Kind: faults.Transient, Prob: 0.05}}}
	ids := []string{devs[0].ID, devs[1].ID}
	cfg, _ := obsConfig(devs, 2, 0)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	results := driveSequential(t, m, streams(devs, n), ids, n)

	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	requireSample := func(series string, want any) {
		t.Helper()
		if line := fmt.Sprintf("%s %v\n", series, want); !strings.Contains(expo, line) {
			t.Errorf("scrape lacks %q", line)
		}
	}

	latSum := map[string]time.Duration{}
	for _, r := range results {
		if r.Err == nil {
			latSum[r.DeviceID] += r.Latency
		}
	}
	for _, id := range ids {
		snap, _ := m.Device(id)
		hr, _ := m.DeviceHealth(id)
		mr, _ := m.DeviceModel(id)
		if snap.Counters.Requests != n {
			t.Fatalf("%s: snapshot requests = %d, want %d", id, snap.Counters.Requests, n)
		}
		if l := snap.Latency; l.P50 <= 0 || l.P90 < l.P50 || l.P99 < l.P90 || l.Max < l.P99 {
			t.Fatalf("%s: latency percentiles not ordered: %+v", id, l)
		}
		for k, tl := range tallies {
			series := fmt.Sprintf("%s{device=%q}", tl.name, id)
			if tl.op != "" {
				series = fmt.Sprintf("%s{device=%q,op=%q}", tl.name, id, tl.op)
			}
			var want int64
			switch {
			case tl.field != nil:
				want = *tl.field(&snap.Counters)
			case statKind(k) == statTransitions:
				want = int64(len(hr.Transitions))
			case statKind(k) == statModelTransitions:
				want = int64(len(mr.Transitions))
			}
			requireSample(series, want)
		}
		dev := fmt.Sprintf("{device=%q}", id)
		requireSample("ssdcheck_request_latency_seconds_count"+dev, snap.Latency.Samples)
		requireSample("ssdcheck_request_latency_seconds_sum"+dev, strconv.FormatFloat(latSum[id].Seconds(), 'g', -1, 64))
		requireSample("ssdcheck_device_clock_ns"+dev, int64(snap.Clock))
	}
	if snap, _ := m.Device(ids[1]); snap.Counters.Retries == 0 {
		t.Error("no retries on the transient device; its retry series check is vacuous")
	}
	met := m.Metrics()
	requireSample("ssdcheck_fleet_devices", met.Devices)
	requireSample("ssdcheck_fleet_shards", met.Shards)
	requireSample("ssdcheck_fleet_unhealthy_devices", met.UnhealthyDevices)
	requireSample("ssdcheck_fleet_fallback_models", met.FallbackModels)
}

// TestTalliesCoverCounters: every Counters field but the derived
// Requests is some tally's field, exactly once, so a counter cannot be
// dropped from the snapshot, the roll-up or a migration alone.
func TestTalliesCoverCounters(t *testing.T) {
	md := &managedDevice{}
	for k := range md.stats.vals {
		md.stats.vals[k] = int64(1) << k
	}
	c := md.counters()
	v := reflect.ValueOf(c)
	seen := map[int64]string{}
	for i := 0; i < v.NumField(); i++ {
		name, got := v.Type().Field(i).Name, v.Field(i).Int()
		if name == "Requests" {
			continue
		}
		if got == 0 || got&(got-1) != 0 || seen[got] != "" {
			t.Errorf("Counters.%s = %#x: not exactly one tally's field", name, got)
		}
		seen[got] = name
	}
	st := &DeviceState{Counters: c.Add(c)}
	var d deviceStats
	restoreTallies(&d, st)
	for k, tl := range tallies {
		if want := md.stats.vals[k] * 2; tl.field != nil && d.vals[k] != want {
			t.Errorf("tally %s restored as %d after Add, want %d", tl.name, d.vals[k], want)
		}
	}
}

// wallClockFamilies are the fleet series whose values come from the
// host's wall clock (how long an operation sat in a shard's ingress
// ring), so two runs of the same scenario legitimately differ in them.
var wallClockFamilies = []string{"fleet_ingress_wait_us"}

// dropFamilies removes every line of the named families — HELP, TYPE
// and samples — from a Prometheus exposition.
func dropFamilies(expo []byte, names ...string) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(expo, []byte("\n")) {
		s := strings.TrimPrefix(strings.TrimPrefix(string(line), "# HELP "), "# TYPE ")
		keep := true
		for _, n := range names {
			keep = keep && !strings.HasPrefix(s, n)
		}
		if keep {
			out = append(out, line...)
		}
	}
	return out
}

// TestExpositionGolden pins the fleet's Prometheus exposition against
// testdata/exposition.golden. A two-shard fleet serves four devices:
// one takes transient errors, one sticks busy, one fail-stops, and one
// has its features shifted until it re-diagnoses. That device then
// moves to a second manager and serves a few more requests there, so
// the file also pins the series a move republishes. Both registries
// are rendered, wall-clock families left out.
func TestExpositionGolden(t *testing.T) {
	const n = 3000
	devs := []DeviceSpec{
		{ID: "flaky", Preset: "B", Seed: 4, Faults: &faults.Config{Seed: 9, Schedules: []faults.Schedule{
			{Kind: faults.Transient, Prob: 0.02},
		}}},
		{ID: "stuck", Preset: "D", Seed: 22, Faults: &faults.Config{Seed: 2, Schedules: []faults.Schedule{
			{Kind: faults.StuckBusy, At: 500, Count: 200},
		}}},
		{ID: "dead", Preset: "F", Seed: 33, Faults: &faults.Config{Seed: 3, Schedules: []faults.Schedule{
			{Kind: faults.FailStop, At: 800},
		}}},
		{ID: "shifty", Preset: "A", Seed: 11, Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.FeatureShift, At: 500, Shift: &blockdev.FeatureShift{BufferScale: 0.25}},
		}}},
	}
	cfg, _ := obsConfig(devs, 2, 0)
	cfg.Health = tightHealth()
	cfg.Model = fastModel()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	strs := streams(devs, n+200)
	driveSequential(t, m, strs, []string{"flaky", "stuck", "dead", "shifty"}, n)
	if rep, _ := m.DeviceModel("shifty"); rep.Rediags == 0 {
		t.Fatal("shifty never re-diagnosed; the rediag series pin is vacuous")
	}

	dstCfg, _ := obsConfig(nil, 1, 0)
	dstCfg.AllowEmpty = true
	dst, err := New(dstCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	pd, err := m.Detach("shifty")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Attach(pd); err != nil {
		t.Fatal(err)
	}
	for _, r := range strs["shifty"][n:] {
		if _, err := dst.Submit("shifty", r.Op, r.LBA, r.Sectors); err != nil {
			t.Fatal(err)
		}
	}

	var expo bytes.Buffer
	for _, reg := range []*obs.Registry{m.Registry(), dst.Registry()} {
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
	}
	requireGolden(t, "exposition", dropFamilies(expo.Bytes(), wallClockFamilies...))
}

// TestScrapeRacesTraffic: scrapes run while batches are served and
// while one device is detached and attached again and again, which
// drops and re-registers its series. Run under -race it checks every
// read-at-render series takes the lock its state is written under;
// afterwards the scrape still matches the snapshots.
func TestScrapeRacesTraffic(t *testing.T) {
	const n = 300
	devs := testSpecs()[:3]
	ids := []string{devs[0].ID, devs[1].ID, devs[2].ID}
	cfg, _ := obsConfig(devs, 2, 0)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := m.Registry().WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			pd, err := m.Detach(ids[2])
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Attach(pd); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// The moving device answers ErrUnknownDevice while detached; only
	// a batch-level error fails the drive.
	driveSequential(t, m, streams(devs, n), ids, n)
	close(stop)
	wg.Wait()

	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		snap, _ := m.Device(id)
		line := fmt.Sprintf("ssdcheck_request_latency_seconds_count{device=%q} %d\n", id, snap.Latency.Samples)
		if !strings.Contains(buf.String(), line) {
			t.Errorf("scrape lacks %q", line)
		}
	}
}
