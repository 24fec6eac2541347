package ecvol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/simclock"
)

// testFleet builds an n-device fleet with fast diagnosis. fault, when
// non-nil, supplies per-device fault schedules by member index.
func testFleet(t testing.TB, n, shards int, fault func(i int) *faults.Config) *fleet.Manager {
	t.Helper()
	specs := fleet.PresetDevices(n, nil, 7)
	for i := range specs {
		if fault != nil {
			specs[i].Faults = fault(i)
		}
	}
	m, err := fleet.New(fleet.Config{Devices: specs, Shards: shards, Diagnosis: fleet.FastDiagnosis()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func memberIDs(m *fleet.Manager) []string {
	devs := m.Devices()
	out := make([]string, len(devs))
	for i, d := range devs {
		out[i] = d.ID
	}
	return out
}

func testVolume(t testing.TB, m *fleet.Manager, mutate func(*Config)) *Volume {
	t.Helper()
	cfg := Config{
		ID:      "vol-test",
		Devices: memberIDs(m),
		Data:    3, Parity: 2,
		Stripes:    8,
		Seed:       42,
		Predictive: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	v, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// driver runs a seeded mixed workload against a volume, maintaining
// the reference version of every chunk and verifying each result
// against the expected fingerprint.
type driver struct {
	t   testing.TB
	v   *Volume
	rng *simclock.RNG
	ver []uint32

	readLat []time.Duration
}

func newDriver(t testing.TB, v *Volume, seed uint64) *driver {
	return &driver{t: t, v: v, rng: simclock.NewRNG(seed), ver: make([]uint32, v.Chunks())}
}

func (d *driver) expect(chunk int64) uint64 {
	return Fingerprint(d.v.Config().Seed, uint64(chunk), d.ver[chunk])
}

// step runs one op: 60% reads, 40% writes, uniform chunks.
func (d *driver) step() {
	chunk := int64(d.rng.Intn(int(d.v.Chunks())))
	if d.rng.Float64() < 0.6 {
		res, err := d.v.Read(chunk)
		if err != nil {
			d.t.Fatalf("read chunk %d: %v", chunk, err)
		}
		if res.Value != d.expect(chunk) {
			d.t.Fatalf("read chunk %d (mode %v): value %#x, want %#x", chunk, res.Mode, res.Value, d.expect(chunk))
		}
		d.readLat = append(d.readLat, res.Latency)
		return
	}
	res, err := d.v.Write(chunk)
	if err != nil {
		d.t.Fatalf("write chunk %d: %v", chunk, err)
	}
	d.ver[chunk]++
	if res.Value != d.expect(chunk) {
		d.t.Fatalf("write chunk %d: value %#x, want %#x", chunk, res.Value, d.expect(chunk))
	}
}

// TestVolumeBasic: a healthy predictive volume serves verified reads
// and writes; forced flush drains every staged stripe.
func TestVolumeBasic(t *testing.T) {
	m := testFleet(t, 6, 2, nil)
	v := testVolume(t, m, nil)
	d := newDriver(t, v, 1)
	for i := 0; i < 300; i++ {
		d.step()
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	st := v.Status()
	if st.Reads+st.Writes != 300 {
		t.Errorf("ops accounted %d, want 300", st.Reads+st.Writes)
	}
	if st.DirectReads+st.SteeredReads+st.ReconstructReads != st.Reads {
		t.Errorf("read mode split %d+%d+%d does not sum to %d",
			st.DirectReads, st.SteeredReads, st.ReconstructReads, st.Reads)
	}
	if st.PendingParity != 0 {
		t.Errorf("pending parity %d after Flush", st.PendingParity)
	}
	if st.ReadErrors != 0 || st.WriteErrors != 0 {
		t.Errorf("errors on a healthy fleet: %+v", st)
	}
}

// TestVolumeDeterminism: the same workload over fleets sharded 1 vs 4
// produces byte-identical stats and identical per-op read latencies —
// the device-ownership model makes shard count an implementation
// detail.
func TestVolumeDeterminism(t *testing.T) {
	run := func(shards int) ([]byte, []time.Duration) {
		m := testFleet(t, 6, shards, nil)
		v := testVolume(t, m, nil)
		d := newDriver(t, v, 3)
		for i := 0; i < 400; i++ {
			d.step()
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v.Status())
		if err != nil {
			t.Fatal(err)
		}
		return b, d.readLat
	}
	b1, lat1 := run(1)
	b4, lat4 := run(4)
	if string(b1) != string(b4) {
		t.Errorf("stats diverge across shard counts:\n  shards=1: %s\n  shards=4: %s", b1, b4)
	}
	if len(lat1) != len(lat4) {
		t.Fatalf("read counts diverge: %d vs %d", len(lat1), len(lat4))
	}
	for i := range lat1 {
		if lat1[i] != lat4[i] {
			t.Fatalf("read %d latency diverges: %v vs %v", i, lat1[i], lat4[i])
		}
	}
}

// TestVolumeDegradedReads: with one member fail-stopped from its first
// request, every chunk stays readable (reconstruct path), every value
// verifies, and the deferral budget holds.
func TestVolumeDegradedReads(t *testing.T) {
	m := testFleet(t, 6, 2, func(i int) *faults.Config {
		if i != 0 {
			return nil
		}
		return &faults.Config{Schedules: []faults.Schedule{{Kind: faults.FailStop, At: 1}}}
	})
	v := testVolume(t, m, nil)
	d := newDriver(t, v, 5)
	for i := 0; i < 300; i++ {
		d.step()
	}
	// Sweep every chunk so chunks owned by the dead device are
	// definitely exercised.
	for chunk := int64(0); chunk < v.Chunks(); chunk++ {
		res, err := v.Read(chunk)
		if err != nil {
			t.Fatalf("read chunk %d: %v", chunk, err)
		}
		if res.Value != d.expect(chunk) {
			t.Fatalf("chunk %d: value %#x, want %#x", chunk, res.Value, d.expect(chunk))
		}
	}
	st := v.Status()
	if st.ReconstructReads == 0 {
		t.Error("no reconstruct reads despite a fail-stopped member")
	}
	if st.ReadErrors != 0 || st.WriteErrors != 0 {
		t.Errorf("errors with k=2 and one lost member: %+v", st)
	}
	if st.MaxPendingObserved > v.Config().MaxPendingStripes {
		t.Errorf("parity deferral budget exceeded: observed %d, bound %d",
			st.MaxPendingObserved, v.Config().MaxPendingStripes)
	}
}

// TestVolumeSteering: a latency storm on one member makes the
// predictive planner reconstruct around it (the observed-HL streak the
// model cannot predict), with every value still correct.
func TestVolumeSteering(t *testing.T) {
	storm := func(i int) *faults.Config {
		if i != 1 {
			return nil
		}
		return &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.LatencyStorm, At: 10, Factor: 20, Count: 60},
		}}
	}
	m := testFleet(t, 6, 2, storm)
	v := testVolume(t, m, nil)
	d := newDriver(t, v, 9)
	for i := 0; i < 400; i++ {
		d.step()
	}
	st := v.Status()
	if st.SteeredReads == 0 {
		t.Errorf("no steered reads through a latency storm: %+v", st)
	}
	if st.ReadErrors != 0 {
		t.Errorf("read errors: %d", st.ReadErrors)
	}
}

// TestVolumeParityBudget: with a tiny budget and an effectively
// infinite deadline, only the budget forces flushes — and it holds.
func TestVolumeParityBudget(t *testing.T) {
	m := testFleet(t, 6, 2, nil)
	v := testVolume(t, m, func(c *Config) {
		c.MaxPendingStripes = 2
		c.MaxDeferral = time.Hour
	})
	d := newDriver(t, v, 11)
	for i := 0; i < 200; i++ {
		d.step()
	}
	st := v.Status()
	if st.MaxPendingObserved > 2 {
		t.Errorf("budget 2 exceeded: observed %d", st.MaxPendingObserved)
	}
	if st.ParityFlushes[causeBudget] == 0 {
		t.Errorf("no budget-forced flushes under budget 2: %+v", st.ParityFlushes)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestVolumeObliviousBaseline: the oblivious volume never defers
// parity and never steers.
func TestVolumeObliviousBaseline(t *testing.T) {
	m := testFleet(t, 6, 2, nil)
	v := testVolume(t, m, func(c *Config) { c.Predictive = false })
	d := newDriver(t, v, 13)
	for i := 0; i < 200; i++ {
		d.step()
	}
	st := v.Status()
	if st.SteeredReads != 0 {
		t.Errorf("oblivious volume steered %d reads", st.SteeredReads)
	}
	if st.PendingParity != 0 || st.MaxPendingObserved != 0 {
		t.Errorf("oblivious volume staged parity: %+v", st)
	}
	if st.Writes > 0 && st.ParityFlushes[causeInline] != st.Writes {
		t.Errorf("inline flushes %d != writes %d", st.ParityFlushes[causeInline], st.Writes)
	}
}

// TestVolumeConfigErrors: bad configurations and addresses are
// rejected with typed errors.
func TestVolumeConfigErrors(t *testing.T) {
	m := testFleet(t, 6, 1, nil)
	ids := memberIDs(m)

	bad := []Config{
		{ID: "a", Devices: ids, Data: 0, Parity: 2, Stripes: 4},
		{ID: "b", Devices: ids, Data: 3, Parity: 0, Stripes: 4},
		{ID: "c", Devices: ids[:3], Data: 3, Parity: 2, Stripes: 4},
		{ID: "d", Devices: ids, Data: 3, Parity: 2, Stripes: 0},
		{ID: "e", Devices: append([]string{ids[0]}, ids...), Data: 3, Parity: 2, Stripes: 4},
	}
	for _, cfg := range bad {
		if _, err := New(m, cfg); err == nil {
			t.Errorf("config %q accepted", cfg.ID)
		}
	}
	if _, err := New(m, Config{Devices: []string{"ghost", "g2", "g3"}, Data: 2, Parity: 1, Stripes: 2}); !errors.Is(err, fleet.ErrUnknownDevice) {
		t.Errorf("unknown member: %v", err)
	}

	v := testVolume(t, m, nil)
	if _, err := v.Read(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative chunk: %v", err)
	}
	if _, err := v.Write(v.Chunks()); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("chunk past end: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Read(0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestVolumeAllocs: the healthy read path stays within a loose
// allocation budget per operation, one that also holds under -race,
// where the detector allocates on its own account. The exact figure
// (zero) is pinned outside -race by the root package's
// TestVolumeOpsZeroAlloc.
func TestVolumeAllocs(t *testing.T) {
	m := testFleet(t, 6, 1, nil)
	v := testVolume(t, m, nil)
	// Warm the scratch buffers and the fleet path.
	for i := int64(0); i < 32; i++ {
		if _, err := v.Read(i % v.Chunks()); err != nil {
			t.Fatal(err)
		}
	}
	chunk := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := v.Read(chunk); err != nil {
			t.Fatal(err)
		}
		chunk = (chunk + 1) % v.Chunks()
	})
	if allocs > 40 {
		t.Errorf("direct read allocates %.1f objects/op, budget 40", allocs)
	}
}

// TestExpositionGolden pins the Prometheus exposition of a volume's
// fleet registry against testdata/exposition.golden. A latency storm
// on one member and a fail-stop on another give the reads every
// serving mode, and the run stops with parity still staged. The
// fleet's ingress wait histogram is left out: its values come from the
// host's wall clock.
func TestExpositionGolden(t *testing.T) {
	m, _ := degradedRun(t)
	var expo bytes.Buffer
	if err := m.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, line := range bytes.SplitAfter(expo.Bytes(), []byte("\n")) {
		s := strings.TrimPrefix(strings.TrimPrefix(string(line), "# HELP "), "# TYPE ")
		if !strings.HasPrefix(s, "fleet_ingress_wait_us") {
			got = append(got, line...)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "exposition.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition moved:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// degradedRun drives 400 seeded operations through a 3+2 volume whose
// member 1 storms and member 4 fail-stops, so reads take every serving
// mode, several flush causes fire, and parity is still staged at the
// end.
func degradedRun(t *testing.T) (*fleet.Manager, *Volume) {
	t.Helper()
	m := testFleet(t, 6, 2, func(i int) *faults.Config {
		switch i {
		case 1:
			return &faults.Config{Schedules: []faults.Schedule{{Kind: faults.LatencyStorm, At: 10, Factor: 20, Count: 60}}}
		case 4:
			return &faults.Config{Schedules: []faults.Schedule{{Kind: faults.FailStop, At: 50}}}
		}
		return nil
	})
	v := testVolume(t, m, nil)
	d := newDriver(t, v, 9)
	for i := 0; i < 400; i++ {
		d.step()
	}
	return m, v
}

// TestVolumeScrapeMatchesStatus: a scrape taken straight after
// traffic shows the reads by serving mode, the parity flushes by cause
// and the staged-parity gauge at the values Status reports.
func TestVolumeScrapeMatchesStatus(t *testing.T) {
	m, v := degradedRun(t)
	var buf bytes.Buffer
	if err := m.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	st := v.Status()
	if st.SteeredReads == 0 || st.ReconstructReads == 0 || st.PendingParity == 0 || len(st.ParityFlushes) < 2 {
		t.Fatalf("scenario misses a series it should check: %+v", st)
	}
	want := []string{
		fmt.Sprintf(`ssdcheck_ecvol_reads_total{mode="direct",volume="vol-test"} %d`, st.DirectReads),
		fmt.Sprintf(`ssdcheck_ecvol_reads_total{mode="steered",volume="vol-test"} %d`, st.SteeredReads),
		fmt.Sprintf(`ssdcheck_ecvol_reads_total{mode="reconstruct",volume="vol-test"} %d`, st.ReconstructReads),
		fmt.Sprintf(`ssdcheck_ecvol_pending_parity{volume="vol-test"} %d`, st.PendingParity),
	}
	for _, c := range flushCauses {
		want = append(want, fmt.Sprintf(`ssdcheck_ecvol_parity_flush_total{cause=%q,volume="vol-test"} %d`, c, st.ParityFlushes[c]))
	}
	for _, line := range want {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("scrape lacks %q", line)
		}
	}
}
