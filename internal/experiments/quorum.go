package experiments

import (
	"bytes"
	"encoding/json"
	"io"

	"ssdcheck/internal/cluster"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/trace"
)

// QuorumResult is the replicated-coordination extension study: a
// 3-replica coordinator group survives a seeded leader kill, a leader
// partition, and a dueling-leader split-brain while driving a fleet
// workload. Batches that arrive during an unavailable window queue and
// drain in arrival order once a viable leader returns, so the final
// per-device state must come out byte-identical to one uninterrupted
// single-fleet run — placements applied exactly once, the stale leader
// fenced off the node plane with zero dual-applies, and the committed
// replica logs byte-identical both across replicas and across fleet
// shard counts.
type QuorumResult struct {
	Replicas, Nodes, Devices int
	Legs                     []QuorumLeg
	// LogsMatchAcrossLegs: the committed placement log is a pure
	// function of the coordination schedule — fleet shard count must
	// not leak into it.
	LogsMatchAcrossLegs bool
}

// QuorumLeg is one run of the chaos schedule at a given shard count.
type QuorumLeg struct {
	Shards            int
	Rounds            int64 // total group rounds driven (workload + drain)
	Deferred          int   // batches queued during unavailable windows
	MaxOutageRounds   int64 // longest unavailable stretch observed
	OutageBound       int64 // lease + election timeout + 1
	Elections         int64
	FencingRejections int64 // stale-term RPCs the node plane bounced
	FinalTerm         int64
	LogEntries        int
	LogsIdentical     bool // committed logs byte-identical across replicas
	ExactlyOnce       bool // each device adopted and placed exactly once
	DualApplies       int  // replica safety violations (conflicting committed entries)
	Equivalent        bool // per-device state byte-identical to the baseline
	HLAccuracy        float64
	BaselineHL        float64
}

// Name implements Report.
func (QuorumResult) Name() string { return "Quorum failover (extension)" }

// Render implements Report.
func (r QuorumResult) Render(w io.Writer) {
	fprintf(w, "Replicated coordination under leader chaos — %d replicas, %d nodes, %d devices\n",
		r.Replicas, r.Nodes, r.Devices)
	fprintf(w, "schedule: leader kill, leader partition, dueling leader (lease-pinned split-brain)\n")
	fprintf(w, "%-7s %-7s %-9s %-11s %-6s %-7s %-6s %-6s %-6s %-10s %7s %7s\n",
		"shards", "rounds", "deferred", "outage", "elect", "fenced", "logs=", "1x", "dual", "equiv", "HL", "base")
	for _, leg := range r.Legs {
		fprintf(w, "%-7d %-7d %-9d %2d (<=%2d)   %-6d %-7d %-6v %-6v %-6d %-10v %6.1f%% %6.1f%%\n",
			leg.Shards, leg.Rounds, leg.Deferred, leg.MaxOutageRounds, leg.OutageBound,
			leg.Elections, leg.FencingRejections, leg.LogsIdentical, leg.ExactlyOnce,
			leg.DualApplies, leg.Equivalent, 100*leg.HLAccuracy, 100*leg.BaselineHL)
	}
	match := "DIVERGE"
	if r.LogsMatchAcrossLegs {
		match = "byte-identical"
	}
	fprintf(w, "committed logs across shard counts: %s\n", match)
}

// Quorum runs the chaos schedule at shard counts 1 and 2 and scores
// each leg against an uninterrupted single-fleet baseline.
func Quorum(o Opts) QuorumResult {
	o = o.WithDefaults()
	const nRep, nNodes, nDev = 3, 3, 4
	seed := o.Seed + 31
	n := o.n(240)

	specs := fleet.PresetDevices(nDev, nil, seed)
	streams := make([][]fleet.Request, nDev)
	for i, spec := range specs {
		reqs := trace.Generate(trace.RWMixed, 1<<20, seed+uint64(i)*7, n)
		streams[i] = make([]fleet.Request, n)
		for j, r := range reqs {
			streams[i][j] = fleet.Request{DeviceID: spec.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors}
		}
	}
	batch := func(step int) []fleet.Request {
		b := make([]fleet.Request, nDev)
		for i := range specs {
			b[i] = streams[i][step]
		}
		return b
	}
	marshal := func(snaps []fleet.DeviceSnapshot) []byte {
		for i := range snaps {
			snaps[i].Shard = 0
		}
		buf, err := json.Marshal(snaps)
		if err != nil {
			panic(err)
		}
		return buf
	}
	// Three chaos windows spread across the run, identical in every
	// leg: a kill early, a clean partition mid-run, and a pinned-lease
	// duel in the final third.
	plan := &faults.NodePlan{Seed: seed, Schedules: []faults.NodeSchedule{
		{Kind: faults.LeaderCrash, At: 6, Rounds: 6},
		{Kind: faults.LeaderPartition, At: int64(n) / 2, Rounds: 6},
		{Kind: faults.DuelingLeader, At: 3 * int64(n) / 4, Rounds: 6},
	}}

	res := QuorumResult{Replicas: nRep, Nodes: nNodes, Devices: nDev}
	var legLogs [][]byte

	for _, shards := range []int{1, 2} {
		nodeCfg := fleet.Config{
			Shards:             shards,
			PreconditionFactor: 1.2,
			Diagnosis:          fleet.FastDiagnosis(),
		}

		// Baseline: one fleet, the full workload, no coordination at all.
		baseCfg := nodeCfg
		baseCfg.Devices = specs
		base, err := fleet.New(baseCfg)
		if err != nil {
			panic(err)
		}
		for step := 0; step < n; step++ {
			if _, err := base.SubmitBatch(batch(step)); err != nil {
				panic(err)
			}
		}
		baseSnaps := base.Devices()
		baseBytes := marshal(base.Devices())
		base.Close()

		g, err := cluster.NewGroup(cluster.GroupConfig{
			Replicas: nRep,
			Nodes:    nNodes,
			Devices:  specs,
			Node:     nodeCfg,
			Policy:   cluster.Policy{Seed: seed},
			Faults:   plan,
		})
		if err != nil {
			panic(err)
		}

		leg := QuorumLeg{
			Shards:      shards,
			OutageBound: cluster.OutageBoundRounds,
		}

		// viable: a leader exists and its last round committed. A
		// quorumless leader (partitioned, dueling) fails this gate, so
		// batches queue instead of risking a half-applied submit.
		viable := func() bool {
			id := g.LeaderID()
			if id == "" {
				return false
			}
			rs, ok := g.Replica(id)
			return ok && rs.FailedCommits == 0
		}
		submit := func(b []fleet.Request) {
			results, err := g.Submit(b)
			if err != nil {
				panic(err)
			}
			for _, r := range results {
				if r.Err != nil {
					panic(r.Err)
				}
			}
		}

		var deferred [][]fleet.Request
		var outage int64
		for step := 0; step < n; step++ {
			if err := g.Tick(); err != nil {
				panic(err)
			}
			if !viable() {
				deferred = append(deferred, batch(step))
				leg.Deferred++
				outage++
				if outage > leg.MaxOutageRounds {
					leg.MaxOutageRounds = outage
				}
				continue
			}
			outage = 0
			for _, b := range deferred {
				submit(b)
			}
			deferred = deferred[:0]
			submit(batch(step))
		}
		// Drain any tail still queued behind a closing chaos window.
		for spin := 0; len(deferred) > 0; spin++ {
			if spin > 50 {
				panic("experiments: quorum leg never drained its deferred queue")
			}
			if err := g.Tick(); err != nil {
				panic(err)
			}
			if !viable() {
				continue
			}
			for _, b := range deferred {
				submit(b)
			}
			deferred = deferred[:0]
		}

		st := g.Status()
		leg.Rounds = st.Round
		leg.Elections = g.Elections()
		leg.FencingRejections = st.FencingRejections
		leg.FinalTerm = st.Term

		// Safety: no replica may have detected a conflicting committed
		// entry (the dual-apply detector), and the logs must agree on
		// every index two replicas hold, snapshots included.
		for _, id := range g.ReplicaIDs() {
			if g.ReplicaErr(id) != nil {
				leg.DualApplies++
			}
		}
		leg.LogEntries = int(st.Replicas[0].LastIndex)
		leg.LogsIdentical = g.CheckLogs() == nil

		// Exactly-once: each device is adopted by exactly one committed
		// record — one bootstrap placement in rep-0's replay of its log,
		// snapshot included — and holds exactly one placement entry on
		// the leader: the failovers replayed, they did not re-decide.
		adopted := make(map[string]int, nDev)
		for _, pe := range g.ReplicaCoordinator("rep-0").PlacementLog() {
			if pe.Cause == "bootstrap" {
				adopted[pe.Device]++
			}
		}
		placed := make(map[string]int, nDev)
		for _, pe := range g.Leader().PlacementLog() {
			placed[pe.Device]++
		}
		leg.ExactlyOnce = true
		for _, spec := range specs {
			if adopted[spec.ID] != 1 || placed[spec.ID] != 1 {
				leg.ExactlyOnce = false
			}
		}

		// Equivalence: the cluster's per-device state vs the baseline.
		byID := make(map[string]fleet.DeviceSnapshot, nDev)
		for _, node := range g.Nodes() {
			for _, s := range node.Manager().Devices() {
				byID[s.ID] = s
			}
		}
		ordered := make([]fleet.DeviceSnapshot, nDev)
		for i, spec := range specs {
			ordered[i] = byID[spec.ID]
		}
		leg.Equivalent = bytes.Equal(marshal(ordered), baseBytes)
		weightedHL := func(snaps []fleet.DeviceSnapshot) float64 {
			var reqs, acc float64
			for _, s := range snaps {
				reqs += float64(s.Counters.Requests)
				acc += float64(s.Counters.Requests) * s.HLAccuracy
			}
			if reqs == 0 {
				return 0
			}
			return acc / reqs
		}
		leg.HLAccuracy = weightedHL(ordered)
		leg.BaselineHL = weightedHL(baseSnaps)

		rep0, err := json.Marshal(g.ReplicaLog("rep-0"))
		if err != nil {
			panic(err)
		}
		legLogs = append(legLogs, rep0)
		g.Close()
		res.Legs = append(res.Legs, leg)
	}

	res.LogsMatchAcrossLegs = true
	for _, l := range legLogs[1:] {
		if !bytes.Equal(l, legLogs[0]) {
			res.LogsMatchAcrossLegs = false
		}
	}
	return res
}
