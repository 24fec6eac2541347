package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
)

// rpcHarness stands up a loopback-transport cluster with the given
// breaker setting and fault plan.
func rpcHarness(t *testing.T, devs []fleet.DeviceSpec, nodes int, seed uint64, breakerFailures int, plan *faults.NodePlan) *Harness {
	t.Helper()
	h, err := NewHarness(HarnessConfig{
		Nodes:   nodes,
		Devices: devs,
		Node:    nodeConfig(),
		Policy:  Policy{Seed: seed, BreakerFailures: breakerFailures},
		Faults:  plan,
		RPC:     &RPCPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// splitOwners computes the loopback scenario's cast from the pure
// placement function: the victim (owns the most devices) and a device
// on each side of the partition. Fails the test if the seed does not
// split the devices across both nodes.
func splitOwners(t *testing.T, devs []fleet.DeviceSpec, nodes int, seed uint64) (victim string, victimDevs int) {
	t.Helper()
	ring := NewRing(seed, virtualNodes)
	for i := 0; i < nodes; i++ {
		ring.Add(fmt.Sprintf("node-%d", i))
	}
	owners := make(map[string]int, nodes)
	for _, d := range devs {
		owner, ok := ring.Owner(d.ID)
		if !ok {
			t.Fatalf("device %q has no ring owner", d.ID)
		}
		owners[owner]++
	}
	victimDevs = -1
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		if owners[id] > victimDevs {
			victim, victimDevs = id, owners[id]
		}
	}
	if victimDevs == len(devs) {
		t.Fatalf("seed %d puts every device on %s; pick a seed that splits them", seed, victim)
	}
	return victim, victimDevs
}

// TestClusterLoopbackExactlyOnce: an RPCDuplicate window delivers
// every submit twice, and the node API's token dedupe collapses each
// pair — so the final per-device stats are byte-identical to a
// fault-free run of the same streams, with zero retries burned.
func TestClusterLoopbackExactlyOnce(t *testing.T) {
	const seed, steps = 7, 40
	devs := clusterSpecs()
	strs := deviceStreams(devs, steps)

	run := func(plan *faults.NodePlan) ([]byte, RPCStats) {
		h := rpcHarness(t, devs, 2, seed, 0, plan)
		c := h.Coordinator()
		step := 0
		for round := 0; round < 2; round++ {
			tickFolded(t, c)
			submitSteps(t, c, devs, strs, step, step+steps/2)
			step += steps / 2
		}
		return marshalSnaps(t, clusterSnapshots(t, h, devs)), h.Loopback().Stats("node-0")
	}

	dupPlan := &faults.NodePlan{Seed: seed, Schedules: []faults.NodeSchedule{
		{Kind: faults.RPCDuplicate, At: 1, Rounds: 2}, // every node, both rounds
	}}
	dupSnaps, dupStats := run(dupPlan)
	cleanSnaps, cleanStats := run(nil)

	if !bytes.Equal(dupSnaps, cleanSnaps) {
		t.Fatalf("duplicated delivery changed device state\nclean:\n%s\nduplicated:\n%s", cleanSnaps, dupSnaps)
	}
	if dupStats.Retries != 0 || dupStats.Timeouts != 0 {
		t.Fatalf("duplication burned retries/timeouts: %+v", dupStats)
	}
	if dupStats.Attempts != cleanStats.Attempts {
		t.Fatalf("attempts %d under duplication, %d clean", dupStats.Attempts, cleanStats.Attempts)
	}
}

// TestClusterBreakerBoundsPartition is the asymmetric-partition
// acceptance check: an RPCTimeout window makes the victim execute
// every submit but lose every response (heartbeats keep flowing, so
// the health machine never evacuates it). With the breaker disabled
// every sub-batch burns a full retry budget of deadlines; with it the
// coordinator pays for exactly BreakerFailures failed operations plus
// one probe per cooldown, fast-failing the rest locally — one timeout
// per open breaker, not one per request.
func TestClusterBreakerBoundsPartition(t *testing.T) {
	const seed = 7
	devs := clusterSpecs()
	victim, victimDevs := splitOwners(t, devs, 2, seed)
	strs := deviceStreams(devs, 64)
	attemptsPerOp := int64(1 + fleet.RetryPolicy{}.WithDefaults().MaxRetries) // 4

	plan := func() *faults.NodePlan {
		return &faults.NodePlan{Seed: seed, Schedules: []faults.NodeSchedule{
			{Kind: faults.RPCTimeout, Node: victim, At: 1, Rounds: 6},
		}}
	}

	// Breaker off: all 10 in-window operations burn the full budget.
	{
		h := rpcHarness(t, devs, 2, seed, -1, plan())
		c := h.Coordinator()
		tickFolded(t, c)
		for step := 0; step < 10; step++ {
			res := submitMixed(t, c, devs, strs, step)
			for _, r := range res {
				if r.Node == victim && !errors.Is(r.Err, ErrNodeUnreachable) {
					t.Fatalf("victim result during window: %v", r.Err)
				}
				if r.Node != victim && r.Err != nil {
					t.Fatalf("bystander result failed: %v", r.Err)
				}
			}
		}
		st := h.Loopback().Stats(victim)
		if want := 10 * attemptsPerOp; st.Timeouts != want {
			t.Fatalf("breaker-off timeouts = %d, want %d", st.Timeouts, want)
		}
		if len(c.BreakerLog()) != 0 {
			t.Fatalf("disabled breaker logged transitions: %+v", c.BreakerLog())
		}
	}

	// Breaker on (default threshold 3): the full lifecycle.
	h := rpcHarness(t, devs, 2, seed, 0, plan())
	c := h.Coordinator()
	lb := h.Loopback()
	tickFolded(t, c) // round 1: window opens, now=1s
	threshold := int64(c.Policy().BreakerFailures)
	for step := 0; step < 10; step++ {
		res := submitMixed(t, c, devs, strs, step)
		for _, r := range res {
			switch {
			case r.Node != victim:
				if r.Err != nil {
					t.Fatalf("step %d bystander failed: %v", step, r.Err)
				}
			case int64(step) < threshold:
				if !errors.Is(r.Err, ErrNodeUnreachable) {
					t.Fatalf("step %d pre-open victim err = %v", step, r.Err)
				}
			default:
				if !errors.Is(r.Err, ErrBreakerOpen) {
					t.Fatalf("step %d post-open victim err = %v", step, r.Err)
				}
			}
		}
	}
	st := lb.Stats(victim)
	if want := threshold * attemptsPerOp; st.Timeouts != want {
		t.Fatalf("breaker-on timeouts after open = %d, want %d (one budget per failure, none per fast-fail)",
			st.Timeouts, want)
	}

	// Two rounds elapse the 2×interval cooldown; the next sub-batch
	// rides through as the half-open probe, fails (window still open),
	// and re-opens the circuit; the one after fast-fails again.
	for i := 0; i < 2; i++ {
		tickFolded(t, c) // rounds 2,3: now=3s
	}
	res := submitMixed(t, c, devs, strs, 10)
	for _, r := range res {
		if r.Node == victim && !errors.Is(r.Err, ErrNodeUnreachable) {
			t.Fatalf("probe result = %v, want unreachable", r.Err)
		}
	}
	res = submitMixed(t, c, devs, strs, 11)
	for _, r := range res {
		if r.Node == victim && !errors.Is(r.Err, ErrBreakerOpen) {
			t.Fatalf("post-probe result = %v, want breaker open", r.Err)
		}
	}
	if got, want := lb.Stats(victim).Timeouts, (threshold+1)*attemptsPerOp; got != want {
		t.Fatalf("timeouts after failed probe = %d, want %d", got, want)
	}

	// Past the window: cooldown elapses, the probe succeeds, the
	// circuit closes, traffic is whole again.
	for i := 0; i < 4; i++ {
		tickFolded(t, c) // rounds 4..7: now=7s, window closed after 6
	}
	res = submitMixed(t, c, devs, strs, 12)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("post-heal result for %q: %v", r.DeviceID, r.Err)
		}
	}
	if got, want := lb.Stats(victim).Timeouts, (threshold+1)*attemptsPerOp; got != want {
		t.Fatalf("healed probe burned timeouts: %d, want %d", got, want)
	}

	var edges []string
	for _, tr := range c.BreakerLog() {
		if tr.Node != victim {
			t.Fatalf("breaker transition on bystander: %+v", tr)
		}
		edges = append(edges, fmt.Sprintf("%v→%v", tr.From, tr.To))
	}
	want := []string{
		"closed→open", "open→half-open", "half-open→open", "open→half-open", "half-open→closed",
	}
	if fmt.Sprint(edges) != fmt.Sprint(want) {
		t.Fatalf("breaker walked %v, want %v", edges, want)
	}
	if victimDevs == 0 {
		t.Fatal("victim owned no devices; scenario vacuous")
	}
}

// submitMixed submits step's request for every device and returns the
// node-attributed results (per-request errors are the caller's to
// judge).
func submitMixed(t *testing.T, c *Coordinator, devs []fleet.DeviceSpec, strs map[string][]blockdev.Request, step int) []Result {
	t.Helper()
	batch := make([]fleet.Request, 0, len(devs))
	for _, d := range devs {
		r := strs[d.ID][step]
		batch = append(batch, fleet.Request{DeviceID: d.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
	}
	res, err := c.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(batch) {
		t.Fatalf("%d results for %d requests", len(res), len(batch))
	}
	for i, r := range res {
		if r.DeviceID != batch[i].DeviceID {
			t.Fatalf("result %d for %q, want %q (input order broken)", i, r.DeviceID, batch[i].DeviceID)
		}
	}
	return res
}

// TestClusterSynthesizedResults: when a whole sub-batch dies on the
// transport, every one of its requests still gets a Result — node
// attributed, unreachable-sentinel error, input order preserved — and
// the failures land in the cluster's submit-failure counter alongside
// unknown-device rejects.
func TestClusterSynthesizedResults(t *testing.T) {
	const seed = 7
	devs := clusterSpecs()
	victim, victimDevs := splitOwners(t, devs, 2, seed)
	plan := &faults.NodePlan{Seed: seed, Schedules: []faults.NodeSchedule{
		{Kind: faults.Partition, Node: victim, At: 1, Rounds: 1},
	}}
	h := rpcHarness(t, devs, 2, seed, 0, plan)
	c := h.Coordinator()
	placement := c.Placement()
	tickFolded(t, c) // round 1: partition active

	// One request per device with an unknown device wedged mid-batch.
	batch := []fleet.Request{
		{DeviceID: devs[0].ID, Op: blockdev.Read, Sectors: 8},
		{DeviceID: devs[1].ID, Op: blockdev.Read, Sectors: 8},
		{DeviceID: "no-such-dev", Op: blockdev.Read, Sectors: 8},
		{DeviceID: devs[2].ID, Op: blockdev.Read, Sectors: 8},
		{DeviceID: devs[3].ID, Op: blockdev.Read, Sectors: 8},
	}
	res, err := c.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(batch) {
		t.Fatalf("%d results for %d requests", len(res), len(batch))
	}
	for i, r := range res {
		if r.DeviceID != batch[i].DeviceID {
			t.Fatalf("result %d for %q, want %q (input order broken)", i, r.DeviceID, batch[i].DeviceID)
		}
		switch {
		case r.DeviceID == "no-such-dev":
			if !errors.Is(r.Err, fleet.ErrUnknownDevice) || r.Node != "" {
				t.Fatalf("unknown device result: err=%v node=%q", r.Err, r.Node)
			}
		case placement[r.DeviceID] == victim:
			if !errors.Is(r.Err, ErrNodeUnreachable) {
				t.Fatalf("device %q on partitioned %s: err = %v", r.DeviceID, victim, r.Err)
			}
			if r.Node != victim {
				t.Fatalf("synthesized result for %q attributed to %q, want %q", r.DeviceID, r.Node, victim)
			}
			if r.Error == "" {
				t.Fatalf("synthesized result for %q lost its wire error string", r.DeviceID)
			}
		default:
			if r.Err != nil {
				t.Fatalf("device %q off the partition failed: %v", r.DeviceID, r.Err)
			}
		}
	}

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ssdcheck_cluster_submit_failures_total (\d+)$`).FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("ssdcheck_cluster_submit_failures_total missing from exposition:\n%s", buf.String())
	}
	got, _ := strconv.Atoi(m[1])
	if want := victimDevs + 1; got != want {
		t.Fatalf("submit failures counter = %d, want %d (%d unreachable + 1 unknown)", got, want, victimDevs)
	}
}

// rpcExposition runs one deterministic chaos scenario — an RPCTimeout
// window that trips the victim's breaker — and returns the merged
// Prometheus exposition.
func rpcExposition(t *testing.T) []byte {
	t.Helper()
	const seed = 7
	devs := clusterSpecs()
	victim, _ := splitOwners(t, devs, 2, seed)
	strs := deviceStreams(devs, 16)
	plan := &faults.NodePlan{Seed: seed, Schedules: []faults.NodeSchedule{
		{Kind: faults.RPCTimeout, Node: victim, At: 1, Rounds: 2},
	}}
	h := rpcHarness(t, devs, 2, seed, 0, plan)
	c := h.Coordinator()
	tickFolded(t, c)
	for step := 0; step < 5; step++ {
		submitMixed(t, c, devs, strs, step)
	}
	return scrapeLive(t, c)
}

// stripWallClockBuckets removes the bucket and sum lines of the fleet's
// ingress wait histogram — the one series whose *values* come from the
// host's wall clock (how long an op sat queued), so its bucket placement
// legitimately differs between two otherwise identical runs. Its _count
// lines stay in the comparison: ops per shard are deterministic, and
// TestIngressObsSeries pins the exact counts at the fleet layer.
func stripWallClockBuckets(exposition []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(exposition, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("fleet_ingress_wait_us_bucket")) ||
			bytes.HasPrefix(line, []byte("fleet_ingress_wait_us_sum")) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

// TestClusterRPCExpositionDeterminism: the merged exposition — RPC
// retry/timeout counters, per-member latency histograms, breaker-state
// gauges, and every fleet series under them — is byte-identical across
// two runs of the same chaos scenario (modulo the wall-clock ingress
// wait buckets, see stripWallClockBuckets).
func TestClusterRPCExpositionDeterminism(t *testing.T) {
	const seed = 7
	victim, _ := splitOwners(t, clusterSpecs(), 2, seed)
	out1 := rpcExposition(t)
	out2 := rpcExposition(t)
	if !bytes.Equal(stripWallClockBuckets(out1), stripWallClockBuckets(out2)) {
		t.Fatalf("expositions diverged\nrun1:\n%s\nrun2:\n%s", out1, out2)
	}
	for _, series := range []string{
		fmt.Sprintf(`ssdcheck_cluster_rpc_retries_total{member=%q}`, victim),
		fmt.Sprintf(`ssdcheck_cluster_rpc_timeouts_total{member=%q}`, victim),
		fmt.Sprintf(`ssdcheck_cluster_rpc_latency_seconds_count{member=%q}`, victim),
		fmt.Sprintf(`ssdcheck_cluster_breaker_state{member=%q} 1`, victim),
	} {
		if !bytes.Contains(out1, []byte(series)) {
			t.Errorf("missing %s in merged exposition", series)
		}
	}
}
