package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
)

// crashMode selects where (and whether) recoveryScenario kills the
// coordinator.
type crashMode int

const (
	noCrash crashMode = iota
	crashMidWorkload
	crashAfterCheckpoint
)

// recoveryScenario drives one kill-a-node failover workload over a
// WAL-backed harness, optionally SIGKILL-style crashing and recovering
// the coordinator at the midpoint, and returns the per-device
// snapshots plus the JSON placement and transition logs. The crash
// happens after half the traffic and two heartbeat rounds; the node
// kill, quarantine, failover, and second half of the traffic all run
// on the recovered coordinator — so matching logs prove the replayed
// state machine continues exactly where the dead one stopped.
func recoveryScenario(t *testing.T, mode crashMode) (snaps, placeLog, transLog []byte) {
	t.Helper()
	const n = 240
	devs := clusterSpecs()
	strs := deviceStreams(devs, n)
	h, err := NewHarness(HarnessConfig{
		Nodes:   3,
		Devices: devs,
		Node:    nodeConfig(),
		WALDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	c := h.Coordinator()

	submitSteps(t, c, devs, strs, 0, n/2)
	for i := 0; i < 2; i++ {
		tickFolded(t, c)
	}
	if mode == crashAfterCheckpoint {
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if mode != noCrash {
		if err := h.CrashCoordinator(); err != nil {
			t.Fatal(err)
		}
		if err := h.Recover(); err != nil {
			t.Fatal(err)
		}
		c = h.Coordinator()
	}

	// Everything from here on runs post-recovery: the kill, the health
	// machine's quarantine, the failover migrations, and the rest of
	// the workload.
	victim := c.Placement()[devs[0].ID]
	if victim == "" {
		t.Fatalf("device %q unplaced after recovery", devs[0].ID)
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tickFolded(t, c)
	}
	for _, st := range c.Nodes() {
		if st.ID == victim && (st.Health != fleet.Quarantined || st.Devices != 0) {
			t.Fatalf("victim after 4 missed beats: %+v", st)
		}
	}
	submitSteps(t, c, devs, strs, n/2, n)

	pl, err := json.MarshalIndent(c.PlacementLog(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := json.MarshalIndent(c.Transitions(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return marshalSnaps(t, clusterSnapshots(t, h, devs)), pl, tl
}

// TestClusterCrashRecoveryEquivalence is the durability acceptance
// check: killing the coordinator mid-workload and replaying its WAL
// yields byte-identical per-device stats and byte-identical subsequent
// placement and health log lines, with the seq counter continuing
// unbroken — for both the tail-replay path and the snapshot path
// (an explicit checkpoint right before the crash).
func TestClusterCrashRecoveryEquivalence(t *testing.T) {
	baseSnaps, basePlace, baseTrans := recoveryScenario(t, noCrash)

	for _, tc := range []struct {
		name string
		mode crashMode
	}{
		{"tail-replay", crashMidWorkload},
		{"snapshot", crashAfterCheckpoint},
	} {
		snaps, place, trans := recoveryScenario(t, tc.mode)
		if !bytes.Equal(snaps, baseSnaps) {
			t.Errorf("%s: per-device stats diverged from the uninterrupted run\nbase:\n%s\ncrash:\n%s",
				tc.name, baseSnaps, snaps)
		}
		if !bytes.Equal(place, basePlace) {
			t.Errorf("%s: placement logs diverged\nbase:\n%s\ncrash:\n%s", tc.name, basePlace, place)
		}
		if !bytes.Equal(trans, baseTrans) {
			t.Errorf("%s: transition logs diverged\nbase:\n%s\ncrash:\n%s", tc.name, baseTrans, trans)
		}
	}

	// The scenario must actually exercise post-recovery failover: the
	// baseline logs carry quarantine transitions and failover moves.
	var places []PlacementEntry
	if err := json.Unmarshal(basePlace, &places); err != nil {
		t.Fatal(err)
	}
	failover := 0
	for _, p := range places {
		if p.Cause == "failover" {
			failover++
		}
	}
	if failover == 0 {
		t.Fatal("scenario moved no devices on failover")
	}
}

// TestClusterRecoveryTornTail: garbage appended to the log — the torn
// final record of a crash mid-append — is dropped on recovery, and the
// recovered coordinator keeps serving and ticking.
func TestClusterRecoveryTornTail(t *testing.T) {
	devs := clusterSpecs()
	dir := t.TempDir()
	h, err := NewHarness(HarnessConfig{
		Nodes:   3,
		Devices: devs,
		Node:    nodeConfig(),
		WALDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	c := h.Coordinator()
	for i := 0; i < 2; i++ {
		tickFolded(t, c)
	}
	placement := c.Placement()
	if err := h.CrashCoordinator(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(filepath.Join(dir, logFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"tick","nodes":["node`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	c = h.Coordinator()
	got := c.Placement()
	if len(got) != len(placement) {
		t.Fatalf("recovered placement has %d devices, want %d", len(got), len(placement))
	}
	for dev, node := range placement {
		if got[dev] != node {
			t.Fatalf("device %q recovered on %q, was on %q", dev, got[dev], node)
		}
	}
	tickFolded(t, c)
	res, err := c.Submit([]fleet.Request{{DeviceID: devs[0].ID, Op: blockdev.Read, Sectors: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("post-recovery submit failed: %v", res[0].Err)
	}
}

// TestClusterWALAutoCompaction: crossing a compaction point folds the
// one-replica log into a snapshot, and recovery from that snapshot
// restores exactly the coordinator that crashed. The tick that crosses
// the point is the one that quarantines a killed node and fails its
// devices over, so a snapshot that missed that tick's decision — taken
// before the decision applied and then truncated with it — would
// recover a coordinator that forgot the quarantine and the moves.
func TestClusterWALAutoCompaction(t *testing.T) {
	devs := clusterSpecs()[:2]
	dir := t.TempDir()
	h, err := NewHarness(HarnessConfig{
		Nodes:   2,
		Devices: devs,
		Node:    nodeConfig(),
		WALDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	c := h.Coordinator()

	// The bootstrap logs two joins and one adopt; every tick logs one
	// record after them, so tick compactEvery-3 writes entry
	// compactEvery. node-1 misses quarantineAfterMisses heartbeats in a
	// row, the last of them on that tick.
	crossing := compactEvery - 3
	killAt := crossing - quarantineAfterMisses + 1
	for i := 1; i <= crossing; i++ {
		if i == killAt {
			if err := c.Kill("node-1"); err != nil {
				t.Fatal(err)
			}
		}
		tickFolded(t, c)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
		t.Fatalf("no snapshot after %d ticks: %v", crossing, err)
	}
	state := func(c *Coordinator) []byte {
		buf, err := json.MarshalIndent(map[string]any{
			"nodes":       c.Nodes(),
			"transitions": c.Transitions(),
			"placement":   c.PlacementLog(),
			"breakers":    c.BreakerLog(),
			"round":       c.Round(),
		}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	before := state(c)
	if n := c.Nodes()[1]; n.Health != fleet.Quarantined || n.Devices != 0 {
		t.Fatalf("node-1 after the crossing tick: %+v, want quarantined and empty", n)
	}

	if err := h.CrashCoordinator(); err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	c = h.Coordinator()
	if after := state(c); !bytes.Equal(after, before) {
		t.Fatalf("coordinator diverged across snapshot recovery\nbefore:\n%s\nafter:\n%s", before, after)
	}
	tickFolded(t, c)
}

// TestClusterRecoveryResumesFaultPlan: a coordinator recovered from a
// compacted log resumes its transport's fault plan at the recovered
// round, not at round 0. A heartbeat-loss window that opens after the
// crash drives exactly the transitions it drives in an uninterrupted
// run.
func TestClusterRecoveryResumesFaultPlan(t *testing.T) {
	const crashAfter, rounds = 290, 320
	run := func(crash bool) []NodeTransition {
		dir := t.TempDir()
		h, err := NewHarness(HarnessConfig{
			Nodes:   3,
			Devices: clusterSpecs()[:2],
			Node:    nodeConfig(),
			WALDir:  dir,
			Faults: &faults.NodePlan{Seed: 7, Schedules: []faults.NodeSchedule{
				{Kind: faults.HeartbeatLoss, Node: "node-1", At: 300, Rounds: 4},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		for round := 1; round <= rounds; round++ {
			tickFolded(t, h.Coordinator())
			if crash && round == crashAfter {
				if _, err := os.Stat(filepath.Join(dir, snapFile)); err != nil {
					t.Fatalf("log not compacted by round %d: %v", round, err)
				}
				if err := h.CrashCoordinator(); err != nil {
					t.Fatal(err)
				}
				if err := h.Recover(); err != nil {
					t.Fatal(err)
				}
				requireFolded(t, h.Coordinator())
			}
		}
		return h.Coordinator().Transitions()
	}
	base := run(false)
	if len(base) == 0 {
		t.Fatal("the heartbeat-loss window drove no transitions")
	}
	if got := run(true); !reflect.DeepEqual(got, base) {
		t.Fatalf("transitions after recovery at round %d:\n%+v\nwant:\n%+v", crashAfter, got, base)
	}
}

// TestClusterFailedMoveFollowsLog: a join whose device moves cannot
// run — the memory carrier answers a remote node as down, so its
// attach is refused — still commits and applies. The live placement is
// the log's (a recovery agrees with it), and Reconcile reports the
// device the failed move left behind.
func TestClusterFailedMoveFollowsLog(t *testing.T) {
	h, err := NewHarness(HarnessConfig{
		Nodes:   3,
		Devices: clusterSpecs(),
		Node:    nodeConfig(),
		WALDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	c := h.Coordinator()
	remote, err := NewRemoteNode("node-r", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Join(remote); err == nil {
		t.Fatal("join moved devices onto a remote node over the memory carrier")
	}
	requireFolded(t, c)
	var stranded string
	for _, e := range c.PlacementLog() {
		if e.To == remote.ID() {
			stranded = e.Device
			break
		}
	}
	if stranded == "" {
		t.Fatalf("join placed nothing on %s: %+v", remote.ID(), c.PlacementLog())
	}
	if _, err := c.Reconcile(); err == nil || !strings.Contains(err.Error(), stranded) {
		t.Fatalf("reconcile after the failed move: %v, want an error naming %s", err, stranded)
	}

	live := c.Placement()
	if err := h.CrashCoordinator(); err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := h.Coordinator().Placement(); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered placement %v, live %v", got, live)
	}
}

// Policy returns the effective (defaulted) policy.
func (c *Coordinator) Policy() Policy { return c.pol }
