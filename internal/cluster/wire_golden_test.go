package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ssdcheck/internal/faults"
)

// TestWireGolden pins the bytes the coordinator's state machines put
// on the wire against files under testdata/: every breaker-state and
// role name with the decode results for malformed input, the node
// health and breaker logs after a breaker opens and a node is lost and
// restored, and the snapshot.json a Checkpoint writes from that state.
func TestWireGolden(t *testing.T) {
	t.Run("codec", func(t *testing.T) {
		var b bytes.Buffer
		writeStateCodec[BreakerState](&b, "BreakerState", []string{"closed", "open", "half-open"})
		writeStateCodec[Role](&b, "Role", []string{"follower", "leader"})
		requireGolden(t, "wire_codec", b.Bytes())
	})

	// TestClusterBreakerBoundsPartition's shape on a durable
	// coordinator: the victim loses every submit response for six
	// rounds, so its breaker opens; then it dies outright, is
	// quarantined and evacuated, comes back, and the first submit after
	// the cooldown closes its breaker again.
	const seed = 7
	devs := clusterSpecs()
	victim, _ := splitOwners(t, devs, 2, seed)
	strs := deviceStreams(devs, 64)
	dir := t.TempDir()
	h, err := NewHarness(HarnessConfig{
		Nodes:   2,
		Devices: devs,
		Node:    nodeConfig(),
		Policy:  Policy{Seed: seed},
		Faults: &faults.NodePlan{Seed: seed, Schedules: []faults.NodeSchedule{
			{Kind: faults.RPCTimeout, Node: victim, At: 1, Rounds: 6},
		}},
		WALDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	c := h.Coordinator()
	tickFolded(t, c)
	for step := 0; step < 5; step++ {
		submitMixed(t, c, devs, strs, step)
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tickFolded(t, c)
	}
	if err := c.Restore(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tickFolded(t, c)
	}
	submitMixed(t, c, devs, strs, 5)

	t.Run("logs", func(t *testing.T) {
		logs := struct {
			Transitions []NodeTransition    `json:"transitions"`
			BreakerLog  []BreakerTransition `json:"breaker_log"`
		}{c.Transitions(), c.BreakerLog()}
		if len(logs.Transitions) == 0 || len(logs.BreakerLog) == 0 {
			t.Fatalf("scenario left an empty log; the pin is vacuous: %+v", logs)
		}
		requireGolden(t, "wire_logs", marshalGolden(t, logs))
	})
	t.Run("snapshot", func(t *testing.T) {
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, snapFile))
		if err != nil {
			t.Fatal(err)
		}
		requireGolden(t, "wire_snapshot", b)
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
