package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

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
	m.Metrics() // refreshes the fleet gauges

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

// TestSnapshotsMatchRegistry: the JSON snapshot counters and the
// registry series are two views of the same atomics.
func TestSnapshotsMatchRegistry(t *testing.T) {
	const n = 100
	devs := testSpecs()[:1]
	strs := streams(devs, n)
	cfg, _ := obsConfig(devs, 1, 0)
	snaps := runInterleaved(t, cfg, strs, n)

	if got := snaps[0].Counters.Requests; got != n {
		t.Fatalf("snapshot requests = %d, want %d", got, n)
	}
	if snaps[0].Latency.P50 <= 0 || snaps[0].Latency.P90 < snaps[0].Latency.P50 ||
		snaps[0].Latency.P99 < snaps[0].Latency.P90 {
		t.Fatalf("latency percentiles not ordered: %+v", snaps[0].Latency)
	}
	if snaps[0].Latency.Max < snaps[0].Latency.P99 {
		t.Fatalf("max below p99: %+v", snaps[0].Latency)
	}
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
