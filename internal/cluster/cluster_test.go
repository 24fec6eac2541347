package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/trace"
)

// clusterSpecs mirrors the fleet package's test fleet: mixed presets,
// fixed seeds.
func clusterSpecs() []fleet.DeviceSpec {
	return []fleet.DeviceSpec{
		{ID: "dev-a", Preset: "A", Seed: 11},
		{ID: "dev-d", Preset: "D", Seed: 22},
		{ID: "dev-f", Preset: "F", Seed: 33},
		{ID: "dev-h", Preset: "H", Seed: 44},
	}
}

func nodeConfig() fleet.Config {
	return fleet.Config{
		Shards:             2,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	}
}

func testHarness(t *testing.T, devs []fleet.DeviceSpec, nodes int, plan *faults.NodePlan) *Harness {
	t.Helper()
	h, err := NewHarness(HarnessConfig{
		Nodes:   nodes,
		Devices: devs,
		Node:    nodeConfig(),
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// Node returns a harness member by ID, or nil when unknown.
func (h *Harness) Node(id string) *Node {
	for _, n := range h.nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// deviceStreams generates one deterministic request stream per device,
// with the same generator parameters the fleet tests use.
func deviceStreams(devs []fleet.DeviceSpec, n int) map[string][]blockdev.Request {
	out := make(map[string][]blockdev.Request, len(devs))
	for i, d := range devs {
		out[d.ID] = trace.Generate(trace.RWMixed, 1<<20, 1000+uint64(i), n)
	}
	return out
}

// submitSteps drives steps [from, to) of the streams through the
// coordinator, one request per device per batch, and fails the test on
// any per-request error.
func submitSteps(t *testing.T, c *Coordinator, devs []fleet.DeviceSpec, strs map[string][]blockdev.Request, from, to int) {
	t.Helper()
	for step := from; step < to; step++ {
		batch := make([]fleet.Request, 0, len(devs))
		for _, d := range devs {
			r := strs[d.ID][step]
			batch = append(batch, fleet.Request{DeviceID: d.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
		}
		res, err := c.Submit(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.DeviceID != batch[i].DeviceID {
				t.Fatalf("step %d result %d for %q, want %q", step, i, r.DeviceID, batch[i].DeviceID)
			}
			if r.Err != nil {
				t.Fatalf("step %d device %q: %v", step, r.DeviceID, r.Err)
			}
		}
	}
}

// clusterSnapshots merges every node's device snapshots into spec
// order, shard assignment cleared — directly comparable with a
// single-fleet run's snapshots.
func clusterSnapshots(t *testing.T, h *Harness, devs []fleet.DeviceSpec) []fleet.DeviceSnapshot {
	t.Helper()
	byID := make(map[string]fleet.DeviceSnapshot)
	for _, n := range h.Nodes() {
		for _, s := range n.Manager().Devices() {
			byID[s.ID] = s
		}
	}
	out := make([]fleet.DeviceSnapshot, 0, len(devs))
	for _, d := range devs {
		s, ok := byID[d.ID]
		if !ok {
			t.Fatalf("device %q missing from every node", d.ID)
		}
		out = append(out, s)
	}
	return out
}

func marshalSnaps(t *testing.T, snaps []fleet.DeviceSnapshot) []byte {
	t.Helper()
	for i := range snaps {
		snaps[i].Shard = 0
	}
	b, err := json.MarshalIndent(snaps, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterBootstrapPlacement: the initial placement obeys the ring,
// uses every node when devices suffice, and the placement log records
// one bootstrap entry per device in spec order.
func TestClusterBootstrapPlacement(t *testing.T) {
	devs := clusterSpecs()
	h := testHarness(t, devs, 3, nil)
	c := h.Coordinator()

	placement := c.Placement()
	if len(placement) != len(devs) {
		t.Fatalf("placed %d devices, want %d", len(placement), len(devs))
	}
	for dev, node := range placement {
		if got := h.Node(node); got == nil {
			t.Fatalf("device %q placed on unknown node %q", dev, node)
		}
		ids := h.Node(node).Manager().DeviceIDs()
		found := false
		for _, id := range ids {
			found = found || id == dev
		}
		if !found {
			t.Fatalf("device %q not attached to its placed node %q (has %v)", dev, node, ids)
		}
	}

	log := c.PlacementLog()
	if len(log) != len(devs) {
		t.Fatalf("placement log has %d entries, want %d", len(log), len(devs))
	}
	for i, e := range log {
		if e.Device != devs[i].ID || e.Cause != "bootstrap" || e.From != "" {
			t.Fatalf("log[%d] = %+v, want bootstrap of %q", i, e, devs[i].ID)
		}
		if e.Seq != int64(i+1) {
			t.Fatalf("log[%d] seq %d, want %d", i, e.Seq, i+1)
		}
	}
}

// TestClusterSubmitAttribution: fan-out results carry the owning
// node's ID and arrive in input order.
func TestClusterSubmitAttribution(t *testing.T) {
	devs := clusterSpecs()[:2]
	h := testHarness(t, devs, 2, nil)
	c := h.Coordinator()
	placement := c.Placement()

	strs := deviceStreams(devs, 20)
	for step := 0; step < 20; step++ {
		batch := make([]fleet.Request, 0, len(devs))
		for _, d := range devs {
			r := strs[d.ID][step]
			batch = append(batch, fleet.Request{DeviceID: d.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
		}
		res, err := c.Submit(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if r.Node != placement[batch[i].DeviceID] {
				t.Fatalf("result attributed to %q, placement says %q", r.Node, placement[batch[i].DeviceID])
			}
		}
	}

	res, err := c.Submit([]fleet.Request{{DeviceID: "no-such-dev", Op: blockdev.Read}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, fleet.ErrUnknownDevice) {
		t.Fatalf("unknown device error = %v", res[0].Err)
	}
}

// TestClusterFailoverEquivalence is the end-to-end acceptance check:
// kill a node mid-workload, let the heartbeat machine quarantine it and
// fail its devices over, finish the workload — and every per-device
// stat, plus the merged cluster counters and latency digest, must be
// byte-identical to one uninterrupted single-fleet run of the same
// streams.
func TestClusterFailoverEquivalence(t *testing.T) {
	const n = 600
	devs := clusterSpecs()
	strs := deviceStreams(devs, n)

	// Baseline: one fleet, no cluster, full workload.
	baseCfg := nodeConfig()
	baseCfg.Devices = devs
	base, err := fleet.New(baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	for step := 0; step < n; step++ {
		batch := make([]fleet.Request, 0, len(devs))
		for _, d := range devs {
			r := strs[d.ID][step]
			batch = append(batch, fleet.Request{DeviceID: d.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
		}
		if _, err := base.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	baseSnaps := marshalSnaps(t, base.Devices())
	baseMetrics := base.Metrics()

	// Cluster: same devices and streams, with a mid-workload node kill.
	h := testHarness(t, devs, 3, nil)
	c := h.Coordinator()

	submitSteps(t, c, devs, strs, 0, n/2)

	victim := c.Placement()[devs[0].ID]
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range c.Nodes() {
		if st.ID == victim {
			if st.Health != fleet.Quarantined || st.InRing || st.Devices != 0 {
				t.Fatalf("victim after 4 missed beats: %+v", st)
			}
		} else if st.Health != fleet.Healthy {
			t.Fatalf("bystander %q went %v", st.ID, st.Health)
		}
	}

	submitSteps(t, c, devs, strs, n/2, n)

	gotSnaps := marshalSnaps(t, clusterSnapshots(t, h, devs))
	if !bytes.Equal(gotSnaps, baseSnaps) {
		t.Fatalf("per-device stats diverged from the single-fleet run\nbase:\n%s\ncluster:\n%s", baseSnaps, gotSnaps)
	}

	cm := c.Metrics()
	if cm.Counters != baseMetrics.Counters {
		t.Fatalf("merged counters %+v, single fleet %+v", cm.Counters, baseMetrics.Counters)
	}
	if cm.AccuracyCounters != baseMetrics.AccuracyCounters {
		t.Fatalf("merged accuracy counters %+v, single fleet %+v", cm.AccuracyCounters, baseMetrics.AccuracyCounters)
	}
	if cm.Latency != baseMetrics.Latency {
		t.Fatalf("merged latency %+v, single fleet %+v", cm.Latency, baseMetrics.Latency)
	}
	if cm.HLAccuracy != baseMetrics.HLAccuracy || cm.NLAccuracy != baseMetrics.NLAccuracy {
		t.Fatalf("merged accuracy %v/%v, single fleet %v/%v",
			cm.HLAccuracy, cm.NLAccuracy, baseMetrics.HLAccuracy, baseMetrics.NLAccuracy)
	}
}

// failoverScenario drives one full kill → quarantine → restore →
// rejoin cycle under a heartbeat-loss fault plan, with a little
// traffic interleaved, and returns the JSON-rendered placement and
// transition logs.
func failoverScenario(t *testing.T) ([]byte, []byte) {
	t.Helper()
	c := failoverRun(t, nil)
	pl, err := json.MarshalIndent(c.PlacementLog(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := json.MarshalIndent(c.Transitions(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return pl, tl
}

// failoverRun drives failoverScenario's harness: node-1's heartbeats go
// silent for six rounds, its devices fail over and come home, with
// traffic on every device each round. after, when non-nil, runs at the
// end of each round.
func failoverRun(t *testing.T, after func(round int, c *Coordinator)) *Coordinator {
	t.Helper()
	devs := clusterSpecs()
	plan := &faults.NodePlan{Seed: 5, Schedules: []faults.NodeSchedule{
		{Kind: faults.HeartbeatLoss, Node: "node-1", At: 2, Rounds: 6},
	}}
	h := testHarness(t, devs, 3, plan)
	c := h.Coordinator()
	strs := deviceStreams(devs, 60)

	step := 0
	for round := 1; round <= 10; round++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		// Heartbeat loss is not a partition: submits keep landing on
		// node-1 until the health machine evacuates it.
		submitSteps(t, c, devs, strs, step, step+6)
		step += 6
		if after != nil {
			after(round, c)
		}
	}
	return c
}

// TestClusterLogDeterminism: the seq-stamped placement and transition
// logs of a failover-and-rejoin run are byte-identical across repeated
// runs (the CI race job repeats this at GOMAXPROCS 1 and 4).
func TestClusterLogDeterminism(t *testing.T) {
	pl1, tl1 := failoverScenario(t)
	pl2, tl2 := failoverScenario(t)
	if !bytes.Equal(pl1, pl2) {
		t.Fatalf("placement logs diverged\nrun1:\n%s\nrun2:\n%s", pl1, pl2)
	}
	if !bytes.Equal(tl1, tl2) {
		t.Fatalf("transition logs diverged\nrun1:\n%s\nrun2:\n%s", tl1, tl2)
	}

	// The scenario must actually have exercised failover and rejoin.
	var trans []NodeTransition
	if err := json.Unmarshal(tl1, &trans); err != nil {
		t.Fatal(err)
	}
	var causes []string
	for _, tr := range trans {
		if tr.Node == "node-1" {
			causes = append(causes, fmt.Sprintf("%v→%v", tr.From, tr.To))
		}
	}
	want := []string{"healthy→degraded", "degraded→quarantined", "quarantined→recovering", "recovering→healthy"}
	if got := strings.Join(causes, ","); got != strings.Join(want, ",") {
		t.Fatalf("node-1 walked %v, want %v", causes, want)
	}

	var places []PlacementEntry
	if err := json.Unmarshal(pl1, &places); err != nil {
		t.Fatal(err)
	}
	var failover, rejoin int
	for _, p := range places {
		switch p.Cause {
		case "failover":
			failover++
		case "rejoin":
			rejoin++
		}
	}
	if failover == 0 || failover != rejoin {
		t.Fatalf("scenario moved %d devices on failover but %d on rejoin", failover, rejoin)
	}
}

// TestClusterPartition: a partitioned node misses heartbeats AND fails
// submits; when the partition heals, traffic and health recover.
func TestClusterPartition(t *testing.T) {
	devs := clusterSpecs()[:2]
	plan := &faults.NodePlan{Seed: 9, Schedules: []faults.NodeSchedule{
		{Kind: faults.Partition, Node: "node-0", At: 1, Rounds: 1},
	}}
	h := testHarness(t, devs, 2, plan)
	c := h.Coordinator()
	placement := c.Placement()

	if err := c.Tick(); err != nil { // round 1: partition active
		t.Fatal(err)
	}
	res, err := c.Submit([]fleet.Request{
		{DeviceID: devs[0].ID, Op: blockdev.Read},
		{DeviceID: devs[1].ID, Op: blockdev.Read},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		onPartitioned := placement[devs[i].ID] == "node-0"
		if onPartitioned && !errors.Is(r.Err, ErrNodeUnreachable) {
			t.Fatalf("device %q on partitioned node: err = %v", devs[i].ID, r.Err)
		}
		if !onPartitioned && r.Err != nil {
			t.Fatalf("device %q off the partition failed: %v", devs[i].ID, r.Err)
		}
	}

	if err := c.Tick(); err != nil { // round 2: healed
		t.Fatal(err)
	}
	res, err = c.Submit([]fleet.Request{{DeviceID: devs[0].ID, Op: blockdev.Read}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("post-heal submit failed: %v", res[0].Err)
	}
}

// TestClusterSlowNode: heartbeats that come back over the deadline
// count as misses — a slow node degrades, then recovers when its
// latency does.
func TestClusterSlowNode(t *testing.T) {
	devs := clusterSpecs()[:2]
	plan := &faults.NodePlan{Seed: 3, Schedules: []faults.NodeSchedule{
		{Kind: faults.SlowNode, Node: "node-1", At: 1, Rounds: 2},
	}}
	h := testHarness(t, devs, 2, plan)
	c := h.Coordinator()

	for i := 0; i < 2; i++ { // rounds 1, 2: heartbeat rtt inflated past deadline
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Nodes()
	if st[1].ID != "node-1" || st[1].Health != fleet.Degraded {
		t.Fatalf("slow node after 2 late beats: %+v", st[1])
	}
	if err := c.Tick(); err != nil { // round 3: fast again
		t.Fatal(err)
	}
	if got := c.Nodes()[1].Health; got != fleet.Healthy {
		t.Fatalf("slow node after recovery beat: %v", got)
	}
}

// TestClusterLeave: a graceful departure migrates the node's devices,
// logs them with the leave cause, and drops the member.
func TestClusterLeave(t *testing.T) {
	devs := clusterSpecs()
	h := testHarness(t, devs, 3, nil)
	c := h.Coordinator()

	leaver := c.Placement()[devs[0].ID]
	if err := c.Leave(leaver); err != nil {
		t.Fatal(err)
	}
	if c.Node(leaver) != nil {
		t.Fatalf("node %q still a member after leave", leaver)
	}
	for dev, node := range c.Placement() {
		if node == leaver {
			t.Fatalf("device %q still placed on departed node", dev)
		}
	}
	moved := 0
	for _, e := range c.PlacementLog() {
		if e.From == leaver {
			if e.Cause != "leave" {
				t.Fatalf("departure move logged as %q: %+v", e.Cause, e)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("leave moved no devices")
	}

	// Traffic still flows on the survivors.
	res, err := c.Submit([]fleet.Request{{DeviceID: devs[0].ID, Op: blockdev.Read}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
}

// TestClusterLeaveKeepsFailoverHistory: a node quarantined (and
// evacuated) before it leaves has nothing left to move, and its leave
// must not relabel the failover moves of the quarantine as departures.
func TestClusterLeaveKeepsFailoverHistory(t *testing.T) {
	devs := clusterSpecs()
	h := testHarness(t, devs, 3, nil)
	c := h.Coordinator()

	victim := c.Placement()[devs[0].ID]
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tickFolded(t, c)
	}
	before := c.PlacementLog()
	failover := 0
	for _, e := range before {
		if e.From == victim && e.Cause == "failover" {
			failover++
		}
	}
	if failover == 0 {
		t.Fatalf("quarantine of %q moved no devices: %+v", victim, before)
	}
	if err := c.Leave(victim); err != nil {
		t.Fatal(err)
	}
	if after := c.PlacementLog(); !reflect.DeepEqual(after, before) {
		t.Fatalf("leave of an evacuated node rewrote the placement log\nbefore: %+v\nafter:  %+v", before, after)
	}
	requireFolded(t, c)
}

// TestClusterMergedExposition: the cluster /metrics view carries the
// coordinator's series unlabeled and every node's series with its
// node label, devices appearing exactly once, on their current owner.
func TestClusterMergedExposition(t *testing.T) {
	devs := clusterSpecs()[:2]
	h := testHarness(t, devs, 2, nil)
	c := h.Coordinator()

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if !strings.Contains(out, "ssdcheck_cluster_nodes 2\n") {
		t.Errorf("missing unlabeled cluster gauge:\n%s", out)
	}
	if !strings.Contains(out, "ssdcheck_cluster_devices 2\n") {
		t.Errorf("missing device count gauge:\n%s", out)
	}
	for dev, node := range c.Placement() {
		series := fmt.Sprintf(`ssdcheck_device_health{device=%q,node=%q}`, dev, node)
		if !strings.Contains(out, series) {
			t.Errorf("missing %s in merged exposition", series)
		}
		if n := strings.Count(out, fmt.Sprintf(`ssdcheck_device_health{device=%q`, dev)); n != 1 {
			t.Errorf("device %q health series appears %d times", dev, n)
		}
	}
	if n := strings.Count(out, "# TYPE ssdcheck_device_health gauge"); n != 1 {
		t.Errorf("ssdcheck_device_health TYPE header appears %d times", n)
	}
}

// TestClusterHarnessRunsRPCClient: a harness configured with neither
// an RPC policy nor a fault plan still reaches its nodes through the
// RPC client, so a submit is an attempt in the client's stats.
func TestClusterHarnessRunsRPCClient(t *testing.T) {
	devs := clusterSpecs()[:2]
	h := testHarness(t, devs, 2, nil)
	c := h.Coordinator()
	res, err := c.Submit(apiReqs(devs[0].ID))
	if err != nil || res[0].Err != nil {
		t.Fatalf("submit: %v / %+v", err, res)
	}
	node := c.Placement()[devs[0].ID]
	if got := h.Loopback().Stats(node).Attempts; got != 1 {
		t.Fatalf("%s: %d RPC attempts for one submit, want 1", node, got)
	}
}

// TestClusterRemoteMemberOverMemoryCarrier: a remote handle joined to a
// harness is down as far as the memory carrier can tell — its
// heartbeat is a miss, not a call into a handle without a manager, and
// a submit to a device placed on it fails at once with ErrNodeDown.
func TestClusterRemoteMemberOverMemoryCarrier(t *testing.T) {
	h := testHarness(t, clusterSpecs(), 3, nil)
	c := h.Coordinator()
	remote, err := NewRemoteNode("node-r", "http://127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Join(remote); err == nil {
		t.Fatal("join moved devices onto a remote member over the memory carrier")
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.Nodes() {
		if st.ID == remote.ID() && st.Misses != 1 {
			t.Fatalf("%s after one round: %d misses, want 1", st.ID, st.Misses)
		}
	}
	var dev string
	for _, e := range c.PlacementLog() {
		if e.To == remote.ID() {
			dev = e.Device
			break
		}
	}
	if dev == "" {
		t.Fatalf("join placed nothing on %s: %+v", remote.ID(), c.PlacementLog())
	}
	res, err := c.Submit(apiReqs(dev))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrNodeDown) {
		t.Fatalf("submit to %s on %s: %v, want ErrNodeDown", dev, remote.ID(), res[0].Err)
	}
	if got := h.Loopback().Stats(remote.ID()).Retries; got != 0 {
		t.Fatalf("%d retries against a down member, want 0", got)
	}
}

// TestExpositionGolden pins the cluster's merged Prometheus exposition
// against testdata/exposition.golden, rendered twice during
// failoverRun: at round 5, with node-1 quarantined and its devices
// failed over, and after round 10, with everything home. The fleet's
// ingress wait histogram is left out: its values come from the host's
// wall clock.
func TestExpositionGolden(t *testing.T) {
	var expo bytes.Buffer
	failoverRun(t, func(round int, c *Coordinator) {
		if round != 5 && round != 10 {
			return
		}
		if round == 5 && c.Nodes()[1].Health != fleet.Quarantined {
			t.Fatalf("node-1 is %v at round 5; the failover pin is vacuous", c.Nodes()[1].Health)
		}
		if err := c.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
	})
	var got []byte
	for _, line := range bytes.SplitAfter(expo.Bytes(), []byte("\n")) {
		s := strings.TrimPrefix(strings.TrimPrefix(string(line), "# HELP "), "# TYPE ")
		if !strings.HasPrefix(s, "fleet_ingress_wait_us") {
			got = append(got, line...)
		}
	}
	requireGolden(t, "exposition", got)
}

// scrapeLive renders the cluster's merged exposition with no read call
// before it and checks the coordinator's own gauges against what the
// read APIs report: member count, members in service, placed devices,
// the round, and each member's health and breaker state.
func scrapeLive(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	requireSample := func(series string, want any) {
		t.Helper()
		if line := fmt.Sprintf("%s %v\n", series, want); !strings.Contains(expo, line) {
			t.Errorf("scrape lacks %q", line)
		}
	}
	nodes := c.Nodes()
	inService := 0
	for _, st := range nodes {
		if st.InRing {
			inService++
		}
		requireSample(fmt.Sprintf("ssdcheck_cluster_node_health{member=%q}", st.ID), int(st.Health))
	}
	for id, b := range c.Breakers() {
		requireSample(fmt.Sprintf("ssdcheck_cluster_breaker_state{member=%q}", id), int(b))
	}
	requireSample("ssdcheck_cluster_nodes", len(nodes))
	requireSample("ssdcheck_cluster_nodes_in_service", inService)
	requireSample("ssdcheck_cluster_devices", len(c.Placement()))
	requireSample("ssdcheck_cluster_round", c.Round())
	return buf.Bytes()
}

// TestClusterScrapeReadsLiveState: through a failover and rejoin, a
// scrape taken each round with no read call before it already shows
// the coordinator's current membership, health and breaker state.
func TestClusterScrapeReadsLiveState(t *testing.T) {
	failoverRun(t, func(round int, c *Coordinator) { scrapeLive(t, c) })
}
