package fleet

import (
	"bytes"
	"strings"
	"testing"

	"ssdcheck/internal/obs"
)

// TestDetachAttachEquivalence: moving devices between managers halfway
// through a workload yields byte-identical per-device stats to an
// uninterrupted single-manager run — the property cluster failover is
// built on.
func TestDetachAttachEquivalence(t *testing.T) {
	const n = 1600
	devs := testSpecs()
	strs := streams(devs, n)

	base := marshalStats(t, runInterleaved(t, testConfig(devs, 2), strs, n))

	// Same workload, but dev-a and dev-f migrate to a second, initially
	// empty manager at the halfway point.
	src, err := New(testConfig(devs, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dstCfg := testConfig(nil, 2)
	dstCfg.AllowEmpty = true
	dstCfg.Shards = 2
	dst, err := New(dstCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	owner := map[string]*Manager{}
	for _, d := range devs {
		owner[d.ID] = src
	}
	for step := 0; step < n; step++ {
		if step == n/2 {
			for _, id := range []string{"dev-a", "dev-f"} {
				pd, err := src.Detach(id)
				if err != nil {
					t.Fatal(err)
				}
				if pd.ID() != id {
					t.Fatalf("portable handle ID %q, want %q", pd.ID(), id)
				}
				if err := dst.Attach(pd); err != nil {
					t.Fatal(err)
				}
				if pd.ID() != "" {
					t.Error("handle not spent after attach")
				}
				owner[id] = dst
			}
		}
		for _, d := range devs {
			r := strs[d.ID][step]
			res, err := owner[d.ID].Submit(d.ID, r.Op, r.LBA, r.Sectors)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeviceID != d.ID {
				t.Fatalf("result for %q, want %q", res.DeviceID, d.ID)
			}
		}
	}

	// Reassemble the snapshots in the baseline's device order.
	byID := map[string]DeviceSnapshot{}
	for _, m := range []*Manager{src, dst} {
		for _, s := range m.Devices() {
			byID[s.ID] = s
		}
	}
	var merged []DeviceSnapshot
	for _, d := range devs {
		merged = append(merged, byID[d.ID])
	}
	got := marshalStats(t, merged)
	if !bytes.Equal(base, got) {
		t.Errorf("migrated run diverges from uninterrupted run\nbase: %s\ngot:  %s", base, got)
	}

	if ids := src.DeviceIDs(); len(ids) != 2 {
		t.Errorf("source still lists %v", ids)
	}
	if ids := dst.DeviceIDs(); len(ids) != 2 {
		t.Errorf("destination lists %v, want the two migrants", ids)
	}
}

// TestDetachAttachRegistries: a move withdraws the device's series from
// the old registry and republishes cumulative values in the new one.
func TestDetachAttachRegistries(t *testing.T) {
	const n = 300
	devs := testSpecs()[:2]
	strs := streams(devs, n)

	srcReg := obs.NewRegistry()
	cfg := testConfig(devs, 1)
	cfg.Registry = srcReg
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for step := 0; step < n; step++ {
		for _, d := range devs {
			r := strs[d.ID][step]
			if _, err := src.Submit(d.ID, r.Op, r.LBA, r.Sectors); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, _ := src.Device("dev-a")

	dstReg := obs.NewRegistry()
	dstCfg := testConfig(nil, 1)
	dstCfg.AllowEmpty = true
	dstCfg.Shards = 1
	dstCfg.Registry = dstReg
	dst, err := New(dstCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	pd, err := src.Detach("dev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Attach(pd); err != nil {
		t.Fatal(err)
	}

	var old, fresh strings.Builder
	if err := srcReg.WritePrometheus(&old); err != nil {
		t.Fatal(err)
	}
	if err := dstReg.WritePrometheus(&fresh); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(old.String(), `device="dev-a"`) {
		t.Errorf("old registry still has dev-a series:\n%s", old.String())
	}
	if !strings.Contains(fresh.String(), `device="dev-a"`) {
		t.Error("new registry has no dev-a series")
	}

	after, ok := dst.Device("dev-a")
	if !ok {
		t.Fatal("dev-a missing from destination")
	}
	after.Shard = before.Shard
	if before != after {
		t.Errorf("snapshot changed across the move\nbefore: %+v\nafter:  %+v", before, after)
	}
	// The republished counter series land on the cumulative tallies.
	want := before.Counters.Reads + before.Counters.Writes + before.Counters.Trims
	var got int64
	for _, op := range []string{"read", "write", "trim"} {
		got += dstReg.Counter("ssdcheck_requests_total", "",
			obs.Label{Name: "device", Value: "dev-a"}, obs.Label{Name: "op", Value: op}).Value()
	}
	if got != want {
		t.Errorf("republished request counters = %d, want %d", got, want)
	}
	// The device serves on its new manager.
	r := strs["dev-a"][0]
	if _, err := dst.Submit("dev-a", r.Op, r.LBA, r.Sectors); err != nil {
		t.Fatal(err)
	}
}

func TestPortableErrors(t *testing.T) {
	m, err := New(testConfig(testSpecs()[:1], 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Detach("ghost"); err == nil {
		t.Error("detach of unknown device accepted")
	}
	pd, err := m.Detach("dev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(pd); err != nil {
		t.Fatal(err) // re-attach to the same manager is legal
	}
	if err := m.Attach(pd); err == nil {
		t.Error("spent handle accepted")
	}
	pd2, err := m.Detach("dev-a")
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(testSpecs()[:1], 1)
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if err := m2.Attach(pd2); err == nil {
		t.Error("duplicate device ID accepted")
	}
	m.Close()
	if _, err := m.Detach("dev-a"); err == nil {
		t.Error("detach after Close accepted")
	}
	if err := m.Attach(pd2); err == nil {
		t.Error("attach after Close accepted")
	}
}

// TestEmptyManager: AllowEmpty stands up a deviceless fleet that
// reports sane metrics and accepts attaches.
func TestEmptyManager(t *testing.T) {
	cfg := Config{AllowEmpty: true, Shards: 2, Diagnosis: FastDiagnosis(), PreconditionFactor: 1.2}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	met := m.Metrics()
	if met.Devices != 0 || met.Counters.Requests != 0 {
		t.Errorf("empty fleet metrics: %+v", met)
	}
	if got := m.LatencyDigest(); got.Count != 0 {
		t.Errorf("empty fleet latency digest has %d samples", got.Count)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("deviceless config without AllowEmpty accepted")
	}
}

// ID returns the device's fleet-unique identifier, or "" for a spent
// handle.
func (p *PortableDevice) ID() string {
	if p == nil || p.md == nil {
		return ""
	}
	return p.md.id
}
