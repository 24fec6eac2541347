package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
)

// runSpecs is a fleet whose devices take every path a device run can
// take mid-run: a feature shift that walks drift → fallback →
// re-diagnosis (the run lets go of md.mu around each re-diagnosis
// step), a transient burst long enough to exhaust retries, quarantine
// the device and fail recovery probes until it passes, and a fail-stop
// device that is probed every ProbeAfterRejections rejections for good
// (the run lets go around each probe).
func runSpecs() []DeviceSpec {
	return []DeviceSpec{
		{ID: "shift", Preset: "A", Seed: 11, Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.FeatureShift, At: 300, Shift: &blockdev.FeatureShift{BufferScale: 0.25}},
		}}},
		{ID: "flaky", Preset: "D", Seed: 22, Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.Transient, At: 40, Count: 60},
		}}},
		{ID: "dead", Preset: "F", Seed: 33, Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.FailStop, At: 200},
		}}},
		{ID: "calm", Preset: "H", Seed: 44},
	}
}

// interleave merges per-device streams into one request stream in a
// seeded irregular order, so the device runs inside a batch have
// uneven lengths. Per-device order is preserved.
func interleave(devs []DeviceSpec, strs map[string][]blockdev.Request, seed uint64) []Request {
	rng := simclock.NewRNG(seed)
	next := make([]int, len(devs))
	var out []Request
	for live := len(devs); live > 0; {
		d := rng.Intn(len(devs))
		r := strs[devs[d].ID]
		if next[d] == len(r) {
			continue
		}
		q := r[next[d]]
		out = append(out, Request{DeviceID: devs[d].ID, Op: q.Op, LBA: q.LBA, Sectors: q.Sectors})
		if next[d]++; next[d] == len(r) {
			live--
		}
	}
	return out
}

// runView is everything a caller can read back after serving a
// stream, rendered to bytes for comparison.
type runView map[string][]byte

// serveStream serves reqs on a fresh fleet — in SubmitBatchInto calls
// of batch requests, or one Submit per request when batch is 0 — and
// renders the results, per-device snapshots, health and model logs,
// the latency digest, the tracer export and the simulation's registry
// series.
func serveStream(t *testing.T, reqs []Request, shards, batch int) runView {
	t.Helper()
	cfg := testConfig(runSpecs(), shards)
	cfg.Model = fastModel()
	cfg.Health = tightHealth()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(99, 1, len(reqs)) // keep every trace
	cfg.Registry = reg
	cfg.Recorder = obs.Observer{Reg: reg, Tr: tr}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	results := make([]Result, len(reqs))
	if batch == 0 {
		for i, r := range reqs {
			results[i], _ = m.Submit(r.DeviceID, r.Op, r.LBA, r.Sectors)
		}
	} else {
		for off := 0; off < len(reqs); off += batch {
			end := min(off+batch, len(reqs))
			if err := m.SubmitBatchInto(reqs[off:end], results[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}

	view := runView{}
	render := func(name string, v any) {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		view[name] = b
	}
	render("results", results)
	view["snapshots"] = marshalStats(t, m.Devices())
	render("health log", m.HealthLog())
	render("model log", m.ModelLog())
	render("latency digest", m.LatencyDigest())
	met := m.Metrics()
	met.Shards = 0
	render("metrics", met)
	var traces, expo bytes.Buffer
	if err := tr.WriteJSON(&traces); err != nil {
		t.Fatal(err)
	}
	view["traces"] = traces.Bytes()
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	var series bytes.Buffer
	sc := bufio.NewScanner(&expo)
	for sc.Scan() {
		// The ingress series time the wall clock; the shard gauge is
		// the one thing the ways differ in on purpose.
		if l := sc.Text(); strings.HasPrefix(l, "ssdcheck_") && !strings.HasPrefix(l, "ssdcheck_fleet_shards") {
			series.WriteString(l + "\n")
		}
	}
	view["series"] = series.Bytes()
	return view
}

// TestDeviceRunsMatchSingleSubmits is the run oracle: serving a stream
// as device runs (64-request batches at 1 and 2 shards) must leave
// every caller-visible output byte-identical to serving it one Submit
// at a time — results, snapshots, both transition logs, the latency
// digest, the traces and the registry series — through drift,
// fallback, re-diagnosis, quarantine and recovery probes mid-run.
func TestDeviceRunsMatchSingleSubmits(t *testing.T) {
	const n = 3000
	devs := runSpecs()
	reqs := interleave(devs, streams(devs, n), 5)

	base := serveStream(t, reqs, 1, 0)
	for _, want := range []struct{ log, state string }{
		{"model log", `"rediagnosing"`},
		{"health log", `"probe pass"`},
		{"health log", `"probe fail"`},
	} {
		if !bytes.Contains(base[want.log], []byte(want.state)) {
			t.Fatalf("%s never reaches %s — the oracle is vacuous:\n%s", want.log, want.state, base[want.log])
		}
	}
	for _, shards := range []int{1, 2} {
		got := serveStream(t, reqs, shards, 64)
		for name, b := range base {
			if !bytes.Equal(b, got[name]) {
				t.Errorf("shards=%d: %s of 64-request batches differs from single submits", shards, name)
			}
		}
	}
}

// promCount reads one series' value out of a Prometheus exposition.
func promCount(t *testing.T, reg *obs.Registry, series string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(l, series+" "); ok {
			return v
		}
	}
	t.Fatalf("exposition has no %s", series)
	return ""
}

// TestLatencyFlushedOnEveryReader: served latencies live in plain
// per-device buckets, and every reader — Metrics, Devices,
// LatencyDigest, a scrape after the health and model reports, a scrape
// of the manager a device moved to, and an export — must count every
// served request. Each check runs right after a batch, with no other
// call in between.
func TestLatencyFlushedOnEveryReader(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(testSpecs(), 2)
	cfg.Registry = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ids := m.DeviceIDs()
	served := map[string]int64{}
	var total int64
	step := 0
	batch := func(ids []string) {
		t.Helper()
		reqs := make([]Request, 0, 24)
		for i := 0; i < 24; i++ {
			id := ids[(step+i)%len(ids)]
			reqs = append(reqs, Request{DeviceID: id, Op: blockdev.Op(i % 2), LBA: int64(step*24+i) * 8, Sectors: 8})
			served[id]++
			total++
		}
		step++
		res, err := m.SubmitBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	latCount := func(r *obs.Registry, id string) string {
		return promCount(t, r, fmt.Sprintf(`ssdcheck_request_latency_seconds_count{device=%q}`, id))
	}

	batch(ids)
	if met := m.Metrics(); int64(met.Latency.Samples) != total || met.Counters.Requests != total {
		t.Errorf("Metrics: %d latency samples, %d requests, want %d", met.Latency.Samples, met.Counters.Requests, total)
	}
	for _, id := range ids {
		if got, want := latCount(reg, id), fmt.Sprint(served[id]); got != want {
			t.Errorf("/metrics after Metrics: %s _count %s, want %s", id, got, want)
		}
	}

	batch(ids)
	for _, s := range m.Devices() {
		if int64(s.Latency.Samples) != s.Counters.Requests || s.Counters.Requests != served[s.ID] {
			t.Errorf("Devices: %s has %d latency samples, %d requests, want %d", s.ID, s.Latency.Samples, s.Counters.Requests, served[s.ID])
		}
	}

	batch(ids)
	if got := m.LatencyDigest().Count; got != total {
		t.Errorf("LatencyDigest: %d samples, want %d", got, total)
	}

	batch(ids)
	if _, ok := m.DeviceHealth(ids[0]); !ok {
		t.Fatal("no health report")
	}
	if got, want := latCount(reg, ids[0]), fmt.Sprint(served[ids[0]]); got != want {
		t.Errorf("/metrics after DeviceHealth: _count %s, want %s", got, want)
	}

	batch(ids)
	if _, ok := m.DeviceModel(ids[1]); !ok {
		t.Fatal("no model report")
	}
	if got, want := latCount(reg, ids[1]), fmt.Sprint(served[ids[1]]); got != want {
		t.Errorf("/metrics after DeviceModel: _count %s, want %s", got, want)
	}

	// Detach → Attach: the moved device's latency history must show in
	// the destination registry.
	other := obs.NewRegistry()
	ocfg := testConfig(nil, 1)
	ocfg.AllowEmpty = true
	ocfg.Registry = other
	dst, err := New(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	batch(ids)
	pd, err := m.Detach(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Attach(pd); err != nil {
		t.Fatal(err)
	}
	if got, want := latCount(other, ids[2]), fmt.Sprint(served[ids[2]]); got != want {
		t.Errorf("/metrics after Detach → Attach: _count %s, want %s", got, want)
	}

	batch([]string{ids[0], ids[1], ids[3]})
	st, err := m.ExportDevice(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency.Count != st.Counters.Requests || st.Counters.Requests != served[ids[3]] {
		t.Errorf("ExportDevice: %d latency samples, %d requests, want %d", st.Latency.Count, st.Counters.Requests, served[ids[3]])
	}
}

// TestSnapshotClockHoldsThroughRediagSteps: a re-diagnosis step runs
// after its request's state refresh and moves the device clock without
// one, so a reader keeps seeing the request's completion instant until
// the next request — unless the step finished the re-diagnosis, which
// refreshes the state itself. A device run that refreshed
// unconditionally at its end would show the probe time early.
func TestSnapshotClockHoldsThroughRediagSteps(t *testing.T) {
	const n = 3000
	spec := runSpecs()[0] // the feature-shifted device
	cfg := testConfig([]DeviceSpec{spec}, 1)
	cfg.Model = fastModel()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	reqs := streams([]DeviceSpec{spec}, n)[spec.ID]
	results := make([]Result, n)
	snaps := make([]DeviceSnapshot, n)
	for i, r := range reqs {
		results[i], _ = m.Submit(spec.ID, r.Op, r.LBA, r.Sectors)
		snaps[i], _ = m.Device(spec.ID)
	}
	finished := map[int64]bool{} // seqs whose re-diagnosis step finished it
	rep, _ := m.DeviceModel(spec.ID)
	for _, tr := range rep.Transitions {
		if tr.From == ModelRediagnosing {
			finished[tr.Seq] = true
		}
	}
	steps := 0
	for i, res := range results {
		if res.Err != nil || finished[int64(i+1)] {
			continue
		}
		if snaps[i].ModelHealth == ModelRediagnosing {
			steps++
		}
		if snaps[i].Clock != res.CompletedAt {
			t.Fatalf("request %d (%v): snapshot clock %v, want its completion %v", i, snaps[i].ModelHealth, snaps[i].Clock, res.CompletedAt)
		}
	}
	if steps == 0 {
		t.Fatalf("no request ran an unfinished re-diagnosis step — the test is vacuous: %+v", rep.Transitions)
	}
}

// TestIngressReadersDuringRuns: readers run concurrently with device
// runs and may only ever see a device between runs (or where a run lets
// go of md.mu, after refreshing what it publishes). Every snapshot's
// latency digest must cover exactly the requests it counts, and counts
// and clocks never go backwards. Run under -race at GOMAXPROCS 1, 4, 8.
func TestIngressReadersDuringRuns(t *testing.T) {
	devs := testSpecs()
	m, err := New(testConfig(devs, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const batches, size = 150, 32
	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			reqs := make([]Request, size)
			out := make([]Result, size)
			for b := 0; b < batches; b++ {
				for i := range reqs {
					reqs[i] = Request{DeviceID: devs[(c+b+i)%len(devs)].ID, Op: blockdev.Op(i % 2), LBA: int64((b*size+i)%4096) * 8, Sectors: 8}
				}
				if err := m.SubmitBatchInto(reqs, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	defer clients.Wait() // a failed check must not close the fleet under the clients
	done := make(chan struct{})
	go func() { clients.Wait(); close(done) }()

	lastReq := map[string]int64{}
	lastClock := map[string]simclock.Time{}
	intoIDs := make([]string, len(devs))
	for i, d := range devs {
		intoIDs[i] = d.ID
	}
	into := make([]SteeringSnapshot, len(devs))
	m.SteeringInto(intoIDs, into)
	var lastTotal, lastDigest int64
	check := func() {
		for _, s := range m.Devices() {
			if int64(s.Latency.Samples) != s.Counters.Requests {
				t.Fatalf("%s: %d latency samples for %d requests", s.ID, s.Latency.Samples, s.Counters.Requests)
			}
			if s.Counters.Requests < lastReq[s.ID] {
				t.Fatalf("%s: requests went back from %d to %d", s.ID, lastReq[s.ID], s.Counters.Requests)
			}
			lastReq[s.ID] = s.Counters.Requests
		}
		for _, s := range m.SteeringAll() {
			if s.Clock < lastClock[s.ID] {
				t.Fatalf("%s: steering clock went back from %v to %v", s.ID, lastClock[s.ID], s.Clock)
			}
			lastClock[s.ID] = s.Clock
		}
		prevInto := append([]SteeringSnapshot(nil), into...)
		m.SteeringInto(intoIDs, into)
		for i, s := range into {
			if s.ID != intoIDs[i] || s.Clock < prevInto[i].Clock {
				t.Fatalf("slot %d (%s): SteeringInto gave %s at clock %v, previously %v",
					i, intoIDs[i], s.ID, s.Clock, prevInto[i].Clock)
			}
		}
		met := m.Metrics()
		if int64(met.Latency.Samples) != met.Counters.Requests || met.Counters.Requests < lastTotal {
			t.Fatalf("Metrics: %d latency samples for %d requests (previously %d)", met.Latency.Samples, met.Counters.Requests, lastTotal)
		}
		lastTotal = met.Counters.Requests
		if _, ok := m.DeviceHealth(devs[0].ID); !ok {
			t.Fatal("no health report")
		}
		d := m.LatencyDigest().Count
		if d < lastDigest {
			t.Fatalf("LatencyDigest went back from %d to %d", lastDigest, d)
		}
		lastDigest = d
	}
	for {
		select {
		case <-done:
			check()
			if want := int64(2 * batches * size); lastTotal != want {
				t.Fatalf("served %d requests, want %d", lastTotal, want)
			}
			return
		default:
			check()
		}
	}
}
