package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
)

// TestWireGolden pins the bytes the fleet's two state machines put on
// the wire against files under testdata/: every state name, the decode
// results for malformed input, both transition logs, and one exported
// DeviceState. The determinism tests compare two runs of the same
// build, so they cannot see an encoding change; these files can.
func TestWireGolden(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		var b bytes.Buffer
		writeStateCodec[Health](&b, "Health", []string{"healthy", "degraded", "quarantined", "recovering"})
		writeStateCodec[ModelHealth](&b, "ModelHealth", []string{"calibrated", "drifting", "fallback", "rediagnosing"})
		requireGolden(t, "wire_codec", b.Bytes())
	})

	healthMgr := goldenHealthDrive(t)
	modelMgr := goldenModelDrive(t)
	t.Run("health_log", func(t *testing.T) {
		requireGolden(t, "wire_health_log", marshalGolden(t, healthMgr.HealthLog()))
	})
	t.Run("model_log", func(t *testing.T) {
		requireGolden(t, "wire_model_log", marshalGolden(t, modelMgr.ModelLog()))
	})
	t.Run("device_state", func(t *testing.T) {
		st, err := healthMgr.ExportDevice("dev-d")
		if err != nil {
			t.Fatal(err)
		}
		if len(st.HealthLog) == 0 {
			t.Fatal("exported device carries no health log; the pin is vacuous")
		}
		requireGolden(t, "wire_device_state", marshalGolden(t, st))
	})
}

// writeStateCodec renders a state type's codec: each named value and
// one past the last, through %s, %v and json.Marshal; then each name,
// an unknown name, an empty one, null, a number, a bool and an escaped
// spelling, decoded both bare and as a struct field into a value that
// holds the last named state beforehand.
func writeStateCodec[S ~uint8](w *bytes.Buffer, typ string, names []string) {
	for v := 0; v <= len(names); v++ {
		s := any(S(v)) // formatted through its dynamic type's methods
		j, err := json.Marshal(s)
		fmt.Fprintf(w, "%s(%d): %%s=%s %%v=%v json=%s err=%v\n", typ, v, s, s, j, err)
	}
	// The escaped spelling of the first name is valid JSON for it.
	inputs := []string{`"nope"`, `""`, `null`, `7`, `true`, fmt.Sprintf(`"\u%04x%s"`, names[0][0], names[0][1:])}
	for _, n := range names {
		inputs = append(inputs, `"`+n+`"`)
	}
	for _, in := range inputs {
		s := S(len(names) - 1)
		err := json.Unmarshal([]byte(in), &s)
		fmt.Fprintf(w, "decode %s %s: value=%d err=%v\n", typ, in, uint8(s), err)
		field := struct {
			S S `json:"state"`
		}{S(len(names) - 1)}
		err = json.Unmarshal([]byte(`{"state":`+in+`}`), &field)
		fmt.Fprintf(w, "decode field %s %s: value=%d err=%v\n", typ, in, uint8(field.S), err)
	}
}

// goldenHealthDrive runs TestHealthLogDeterminism's fault schedules
// and streams on one shard.
func goldenHealthDrive(t *testing.T) *Manager {
	const n = 2000
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
	cfg := testConfig(devs, 1)
	cfg.Retry = RetryPolicy{MaxRetries: -1}
	cfg.Health = tightHealth()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	driveSequential(t, m, streams(testSpecs(), n), []string{"dev-a", "dev-d", "dev-f", "dev-h"}, n)
	return m
}

// goldenModelDrive runs TestModelLogDeterminism's feature shifts and
// streams on one shard.
func goldenModelDrive(t *testing.T) *Manager {
	const n = 6000
	devs := []DeviceSpec{
		{ID: "m0", Preset: "A", Seed: 11},
		{ID: "m1", Preset: "D", Seed: 22},
		{ID: "m2", Preset: "F", Seed: 33},
		{ID: "m3", Preset: "H", Seed: 44},
		{ID: "m4", Preset: "A", Seed: 55},
		{ID: "m5", Preset: "D", Seed: 66},
		{ID: "m6", Preset: "F", Seed: 77},
		{ID: "m7", Preset: "A", Seed: 88},
	}
	devs[0].Faults = &faults.Config{Schedules: []faults.Schedule{
		{Kind: faults.FeatureShift, At: 500, Shift: &blockdev.FeatureShift{BufferScale: 0.25}},
	}}
	devs[2].Faults = &faults.Config{Schedules: []faults.Schedule{
		{Kind: faults.FeatureShift, At: 900, Shift: &blockdev.FeatureShift{ToggleReadTrigger: true}},
	}}
	devs[4].Faults = &faults.Config{Seed: 5, Schedules: []faults.Schedule{
		{Kind: faults.FeatureShift, Prob: 0.001, Shift: &blockdev.FeatureShift{BufferScale: 0.2}},
		{Kind: faults.Transient, Prob: 0.005},
	}}
	devs[7].Faults = &faults.Config{Schedules: []faults.Schedule{
		{Kind: faults.Drift, At: 1200, Factor: 1.5},
	}}
	cfg := testConfig(devs, 1)
	cfg.Model = fastModel()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ids := make([]string, 0, len(devs))
	for _, d := range devs {
		ids = append(ids, d.ID)
	}
	driveSequential(t, m, streams(devs, n), ids, n)
	return m
}

func marshalGolden(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// requireGolden fails the test unless got matches testdata/<name>.golden
// byte for byte.
func requireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s moved:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
