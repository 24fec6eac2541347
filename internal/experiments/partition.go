package experiments

import (
	"fmt"
	"io"
	"time"

	"ssdcheck/internal/cluster"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/trace"
)

// PartitionMode is one run of the asymmetric-partition workload: the
// same streams, the same fault window, with the circuit breaker off or
// on.
type PartitionMode struct {
	Name string

	// Served and Failed split the per-request outcomes: a request
	// whose result carries an error (response lost, breaker open)
	// counts as failed.
	Served int64
	Failed int64

	// HLAccuracy is the merged cluster accuracy over the requests the
	// nodes actually executed.
	HLAccuracy float64

	// Transport accounting against the victim node.
	Attempts int64
	Retries  int64
	Timeouts int64

	// RPCCost is the victim's accumulated virtual submit time (each
	// lost response burns one full RPC deadline per attempt, plus
	// backoff); MaxSubmit is the costliest single operation — the
	// transport's contribution to tail latency.
	RPCCost   time.Duration
	MaxSubmit time.Duration

	// BreakerOpens counts closed/half-open → open edges.
	BreakerOpens int
}

// PartitionResult is an extension study on the networked cluster
// layer: an asymmetric partition (the victim node executes every
// submit but its responses are lost) opens mid-workload, and the same
// run is scored with the per-node circuit breaker disabled and
// enabled. Without the breaker every sub-batch addressed to the
// victim burns its full retry budget of RPC deadlines; with it the
// coordinator pays for BreakerFailures failures plus one probe per
// cooldown, and the rest of the window fast-fails locally.
type PartitionResult struct {
	Nodes, Devices int
	Victim         string
	VictimDevices  int

	// The RPCTimeout window in heartbeat rounds (1-based, inclusive
	// start), out of TotalRounds driven.
	WindowStart int64
	WindowEnd   int64
	TotalRounds int64

	Modes []PartitionMode
}

// Name implements Report.
func (PartitionResult) Name() string { return "Asymmetric partition (extension)" }

// Render implements Report.
func (r PartitionResult) Render(w io.Writer) {
	fprintf(w, "Asymmetric partition — %d devices on %d nodes; %s (%d devices) executes\n",
		r.Devices, r.Nodes, r.Victim, r.VictimDevices)
	fprintf(w, "submits but loses responses during heartbeat rounds %d..%d of %d\n",
		r.WindowStart, r.WindowEnd, r.TotalRounds)
	fprintf(w, "%-12s %8s %7s %7s %8s %9s %11s %11s %6s\n",
		"mode", "served", "failed", "HL acc", "timeouts", "retries", "rpc cost", "max submit", "opens")
	for _, m := range r.Modes {
		fprintf(w, "%-12s %8d %7d %6.1f%% %8d %9d %11s %11s %6d\n",
			m.Name, m.Served, m.Failed, 100*m.HLAccuracy,
			m.Timeouts, m.Retries, m.RPCCost.Round(time.Millisecond), m.MaxSubmit.Round(time.Millisecond),
			m.BreakerOpens)
	}
	if len(r.Modes) == 2 {
		off, on := r.Modes[0], r.Modes[1]
		if on.Timeouts > 0 && off.Timeouts > on.Timeouts {
			fprintf(w, "breaker bound the window to %d timed-out attempts (vs %d without, %.1fx less RPC time burned)\n",
				on.Timeouts, off.Timeouts, float64(off.RPCCost)/float64(max64(int64(on.RPCCost), 1)))
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Partition drives the same mixed workload through a 3-node cluster
// on the in-memory loopback transport twice — breaker disabled, then
// enabled — while an RPCTimeout fault window covers the node that
// owns the most devices. The victim keeps answering heartbeats (the
// partition is asymmetric: control plane fine, data plane
// response-lossy), so the health machine never evacuates it and only
// the breaker can stop the coordinator from burning a full retry
// budget per sub-batch.
func Partition(o Opts) PartitionResult {
	o = o.WithDefaults()
	const nNodes, nDevices = 3, 6
	const totalRounds, windowStart, windowRounds = 12, 3, 4
	seed := o.Seed + 29
	n := o.n(1200)
	if n < totalRounds {
		n = totalRounds
	}
	tickEvery := n / totalRounds

	specs := fleet.PresetDevices(nDevices, nil, seed)
	nodeCfg := fleet.Config{
		Shards:             2,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	}
	streams := make([][]fleet.Request, nDevices)
	for i, spec := range specs {
		reqs := trace.Generate(trace.RWMixed, 1<<20, seed+uint64(i)*11, n)
		streams[i] = make([]fleet.Request, n)
		for j, r := range reqs {
			streams[i][j] = fleet.Request{DeviceID: spec.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors}
		}
	}

	// The placement ring is a pure function of (seed, membership,
	// devices), so the victim — the node owning the most devices — is
	// computable without standing a cluster up. Size 0 takes the
	// coordinator's virtual-node count.
	pol := cluster.Policy{Seed: seed}
	ring := cluster.NewRing(seed, 0)
	for i := 0; i < nNodes; i++ {
		ring.Add(nodeID(i))
	}
	owners := make(map[string]int, nNodes)
	for _, spec := range specs {
		if owner, ok := ring.Owner(spec.ID); ok {
			owners[owner]++
		}
	}
	victim, victimDevices := "", -1
	for i := 0; i < nNodes; i++ {
		if owners[nodeID(i)] > victimDevices {
			victim, victimDevices = nodeID(i), owners[nodeID(i)]
		}
	}

	res := PartitionResult{
		Nodes: nNodes, Devices: nDevices,
		Victim: victim, VictimDevices: victimDevices,
		WindowStart: windowStart, WindowEnd: windowStart + windowRounds - 1,
		TotalRounds: totalRounds,
	}
	for _, mode := range []struct {
		name     string
		breakers int // Policy.BreakerFailures: negative disables
	}{
		{"breaker-off", -1},
		{"breaker-on", 0},
	} {
		plan := &faults.NodePlan{Seed: seed, Schedules: []faults.NodeSchedule{{
			Kind: faults.RPCTimeout, Node: victim, At: windowStart, Rounds: windowRounds,
		}}}
		p := pol
		p.BreakerFailures = mode.breakers
		h, err := cluster.NewHarness(cluster.HarnessConfig{
			Nodes:   nNodes,
			Devices: specs,
			Node:    nodeCfg,
			Policy:  p,
			Faults:  plan,
		})
		if err != nil {
			panic(err)
		}
		c := h.Coordinator()

		m := PartitionMode{Name: mode.name}
		for step := 0; step < n; step++ {
			if step%tickEvery == 0 && int64(step/tickEvery) < totalRounds {
				if err := c.Tick(); err != nil {
					panic(err)
				}
			}
			batch := make([]fleet.Request, nDevices)
			for i := range specs {
				batch[i] = streams[i][step]
			}
			results, err := c.Submit(batch)
			if err != nil {
				panic(err)
			}
			for _, r := range results {
				if r.Err != nil {
					m.Failed++
				} else {
					m.Served++
				}
			}
		}

		stats := h.Loopback().Stats(victim)
		m.Attempts, m.Retries, m.Timeouts = stats.Attempts, stats.Retries, stats.Timeouts
		m.RPCCost, m.MaxSubmit = stats.Cost, stats.MaxSubmit
		m.HLAccuracy = c.Metrics().HLAccuracy
		for _, tr := range c.BreakerLog() {
			if tr.To == cluster.BreakerOpen {
				m.BreakerOpens++
			}
		}
		res.Modes = append(res.Modes, m)
		h.Close()
	}
	return res
}

// nodeID mirrors the harness's member naming.
func nodeID(i int) string {
	return fmt.Sprintf("node-%d", i)
}
