package fleet

import (
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
)

// TestSteeringSnapshot: the accessor mirrors the cached per-device
// state — membership order, availability tied to quarantine, and the
// observed-HL streak opening under a latency storm.
func TestSteeringSnapshot(t *testing.T) {
	devs := []DeviceSpec{
		{ID: "dev-a", Preset: "A", Seed: 11},
		{ID: "dev-b", Preset: "A", Seed: 22, Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.LatencyStorm, At: 5, Factor: 32, Count: 200},
		}}},
		{ID: "dev-c", Preset: "A", Seed: 33, Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.FailStop, At: 1},
		}}},
	}
	m, err := New(testConfig(devs, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	all := m.SteeringAll()
	if len(all) != 3 {
		t.Fatalf("SteeringAll returned %d devices, want 3", len(all))
	}
	for i, d := range devs {
		if all[i].ID != d.ID {
			t.Errorf("snapshot %d is %q, want membership order %q", i, all[i].ID, d.ID)
		}
		if !all[i].Available {
			t.Errorf("%s unavailable before any traffic", d.ID)
		}
	}

	// Drive enough requests to fire both fault schedules.
	for i := 0; i < 40; i++ {
		batch := make([]Request, 0, len(devs))
		for _, d := range devs {
			batch = append(batch, Request{DeviceID: d.ID, Op: blockdev.Read, LBA: int64(i) * 8, Sectors: 8})
		}
		if _, err := m.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	if s, ok := m.Steering("dev-b"); !ok || s.HLStreak == 0 {
		t.Errorf("storming device has no HL streak: %+v (ok=%v)", s, ok)
	} else if !s.Risky() {
		t.Errorf("storming device not risky: %+v", s)
	}
	if s, ok := m.Steering("dev-c"); !ok || s.Available || s.Health != Quarantined {
		t.Errorf("fail-stopped device still available: %+v (ok=%v)", s, ok)
	}
	if s, ok := m.Steering("dev-a"); !ok || !s.Available {
		t.Errorf("healthy device unavailable: %+v (ok=%v)", s, ok)
	}
	if _, ok := m.Steering("ghost"); ok {
		t.Error("unknown device returned a snapshot")
	}
}

// TestSteeringInto: the in-place fill matches SteeringAll entry by
// entry, in whatever order the caller lists its IDs, and a slot whose
// device the fleet does not hold (never attached, or detached since)
// keeps the value it had.
func TestSteeringInto(t *testing.T) {
	devs := testSpecs()
	m, err := New(testConfig(devs, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	drive := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			for _, d := range m.SteeringAll() {
				if _, err := m.Submit(d.ID, blockdev.Op(i%2), int64(i)*8, 8); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	drive(50)

	all := m.SteeringAll()
	ids := make([]string, len(all))
	for i, s := range all {
		ids[i] = s.ID
	}
	dst := make([]SteeringSnapshot, len(ids))
	m.SteeringInto(ids, dst)
	for i := range all {
		if dst[i] != all[i] {
			t.Errorf("slot %d: SteeringInto %+v, SteeringAll %+v", i, dst[i], all[i])
		}
	}

	// Reversed, with an unknown ID in the middle: every known slot is
	// its device's snapshot, and the unknown slot is left as it was.
	sentinel := SteeringSnapshot{ID: "sentinel", HLStreak: -1}
	rev := []string{ids[3], ids[2], "ghost", ids[1], ids[0]}
	got := []SteeringSnapshot{{}, {}, sentinel, {}, {}}
	m.SteeringInto(rev, got)
	for i, id := range rev {
		want := sentinel
		if id != "ghost" {
			want, _ = m.Steering(id)
		}
		if got[i] != want {
			t.Errorf("%s: SteeringInto %+v, want %+v", id, got[i], want)
		}
	}

	// Detach one member, move the rest on, and refill the old view: the
	// detached member's slot keeps its last snapshot.
	gone, kept, before := ids[1], dst[0], dst[1]
	if _, err := m.Detach(gone); err != nil {
		t.Fatal(err)
	}
	drive(20)
	m.SteeringInto(ids, dst)
	if dst[1] != before {
		t.Errorf("detached %s: slot changed from %+v to %+v", gone, before, dst[1])
	}
	if dst[0].Clock <= kept.Clock {
		t.Errorf("%s: clock %v did not advance past %v; the refill proves nothing", ids[0], dst[0].Clock, kept.Clock)
	}
	for _, s := range m.SteeringAll() {
		for i, id := range ids {
			if id == s.ID && dst[i] != s {
				t.Errorf("%s: SteeringInto %+v, SteeringAll %+v", id, dst[i], s)
			}
		}
	}
}

// Steering returns the steering snapshot of one device.
func (m *Manager) Steering(id string) (SteeringSnapshot, bool) {
	m.mu.RLock()
	md, ok := m.devs[id]
	m.mu.RUnlock()
	if !ok {
		return SteeringSnapshot{}, false
	}
	md.mu.Lock()
	defer md.mu.Unlock()
	return md.steeringLocked(), true
}
