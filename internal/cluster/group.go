package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// The group's leadership clock, in heartbeat rounds (the group's only
// clock).
const (
	// leaseRounds is how many consecutive quorum-failed commits a
	// leader tolerates before stepping down on its own. It is
	// deliberately below electionTimeoutRounds: a leader cut off from
	// its peers abdicates before the followers elect, so in the common
	// partition the old leader is already a follower when the new term
	// starts, and fencing handles the pathological case where it is
	// not.
	leaseRounds = 2
	// electionTimeoutRounds is how many rounds a follower waits without
	// hearing from a leader before campaigning.
	electionTimeoutRounds = 3

	// OutageBoundRounds bounds, in rounds, how long the group goes
	// without a committing leader after losing one: the lease lapses,
	// the election timeout runs, and one round elects.
	OutageBoundRounds = leaseRounds + electionTimeoutRounds + 1
)

// GroupConfig parameterizes a replicated coordination group: N
// coordinator replicas over one shared node plane.
type GroupConfig struct {
	// Replicas is the coordinator replica count, named "rep-0",
	// "rep-1", … in ID order. 0 defaults to 3.
	Replicas int

	// Nodes is the data-plane member count; nodes are named "node-0",
	// "node-1", … in join order. 0 defaults to 3.
	Nodes int

	// Devices is the cluster-wide device set, diagnosed in one
	// bootstrap fleet and adopted through the replicated log.
	Devices []fleet.DeviceSpec

	// Node is the per-node fleet configuration template (policies,
	// shards, queue depth). Devices and Registry are overridden.
	Node fleet.Config

	// Policy tunes each replica's coordinator; the zero value takes
	// the standard defaults.
	Policy Policy

	// Faults, when non-nil, schedules leader chaos — LeaderCrash,
	// LeaderPartition, DuelingLeader windows — evaluated once per group
	// round against whoever holds the lease when the window opens.
	// Non-leader kinds in the plan are ignored by the group (replica
	// RPC clients run fault-free; node-plane fault injection belongs to
	// the single-coordinator harness).
	Faults *faults.NodePlan

	// Dir, when non-empty, makes every replica's log durable under
	// <Dir>/<replica-id>/ (log.jsonl, meta.json, snapshot.json; see
	// log.go) and must not already hold replica state; empty keeps logs
	// in memory (the in-memory copy plays the disk: it survives
	// simulated crashes).
	Dir string
}

// Group is a replicated, lease-fenced coordination group: one leader
// replica runs the live Coordinator, standbys replay its quorum-
// committed log, and deterministic elections (longest log wins, member
// ID breaks ties) recover leadership when the lease lapses. All
// replica and protocol state is driven single-threaded under the
// group's lock from explicit Tick and Submit calls, so two runs with
// the same config and chaos schedule produce byte-identical logs.
type Group struct {
	mu     sync.Mutex
	cfg    GroupConfig
	cpol   Policy
	closed bool

	round    int64
	order    []string // replica IDs, sorted
	replicas map[string]*Replica

	nodes     []*Node
	nodesByID map[string]*Node

	// Chaos: the partition matrix (replica → cut off the peer plane)
	// and the latched targets of the currently-open fault windows.
	partitioned map[string]bool
	nf          *faults.NodeFaults
	chaosCrash  string // replica crashed by an open LeaderCrash window
	chaosPart   string // replica cut by an open LeaderPartition/Duel window
	chaosPin    string // replica lease-pinned by an open Duel window

	reg        *obs.Registry
	cElections *obs.Counter
	cInstalls  *obs.Counter
	hLag       *obs.Histogram
}

// NewGroup stands the replicated group up: build the node plane, the
// replicas (each with its own loopback client, reaching the nodes' own
// APIs, and a standby coordinator), elect the lowest replica ID at
// term 1, and drive membership and bootstrap placement through the
// replicated log so every replica starts from the same committed
// prefix.
func NewGroup(cfg GroupConfig) (*Group, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Replicas < 0 || cfg.Nodes < 0 {
		return nil, fmt.Errorf("cluster: %d replicas over %d nodes", cfg.Replicas, cfg.Nodes)
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("cluster: group with no devices")
	}
	// A group always bootstraps a fresh log: reusing a directory would
	// overwrite the stored term before failing on the replayed joins.
	// Opening a replica's store creates its log.jsonl.
	for i := 0; cfg.Dir != "" && i < cfg.Replicas; i++ {
		if dir := filepath.Join(cfg.Dir, fmt.Sprintf("rep-%d", i)); fileExists(filepath.Join(dir, logFile)) {
			return nil, fmt.Errorf("cluster: %s already holds replica state; a group starts from an empty directory", dir)
		}
	}

	reg := obs.NewRegistry()
	g := &Group{
		cfg:         cfg,
		cpol:        cfg.Policy.withDefaults(),
		replicas:    make(map[string]*Replica),
		nodesByID:   make(map[string]*Node),
		partitioned: make(map[string]bool),
		reg:         reg,
		cElections:  reg.Counter("ssdcheck_cluster_elections_total", "Leadership elections completed."),
		cInstalls:   reg.Counter("ssdcheck_cluster_snapshot_installs_total", "Followers caught up from the leader's snapshot instead of its log."),
		hLag: reg.HistogramScaled("ssdcheck_cluster_replication_lag_entries",
			"Per-peer log entries outstanding after each proposal.", 1),
	}
	if cfg.Faults != nil {
		nf, err := faults.NewNodeFaults(*cfg.Faults)
		if err != nil {
			return nil, err
		}
		g.nf = nf
	}

	// Node plane.
	nodeCfg := cfg.Node
	nodeCfg.Devices = nil
	nodeCfg.Recorder = nil
	for i := 0; i < cfg.Nodes; i++ {
		nodeCfg.Registry = obs.NewRegistry()
		n, err := NewNode(fmt.Sprintf("node-%d", i), nodeCfg)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.nodes = append(g.nodes, n)
		g.nodesByID[n.ID()] = n
	}

	// Replicas, in sorted ID order.
	for i := 0; i < cfg.Replicas; i++ {
		id := fmt.Sprintf("rep-%d", i)
		if err := g.buildReplica(id, uint64(i)); err != nil {
			g.Close()
			return nil, err
		}
		g.order = append(g.order, id)
	}

	// Bootstrap election: the lowest ID takes term 1 — deterministic,
	// and exactly what the round-driven election would decide over a
	// set of empty logs.
	g.mu.Lock()
	if err := g.takeoverLocked(g.replicas[g.order[0]], 1); err != nil {
		g.mu.Unlock()
		g.Close()
		return nil, err
	}
	lead := g.currentLeaderLocked()
	g.mu.Unlock()

	// Membership and bootstrap placement ride the replicated log.
	g.mu.Lock()
	for _, n := range g.nodes {
		if err := lead.coord.Join(n); err != nil {
			g.mu.Unlock()
			g.Close()
			return nil, err
		}
	}
	g.mu.Unlock()

	bootCfg := cfg.Node
	bootCfg.Devices = cfg.Devices
	bootCfg.Registry = obs.NewRegistry()
	bootCfg.Recorder = nil
	bootCfg.AllowEmpty = false
	boot, err := fleet.New(bootCfg)
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("cluster: bootstrap fleet: %w", err)
	}
	ids := make([]string, len(cfg.Devices))
	for i, d := range cfg.Devices {
		ids[i] = d.ID
	}
	g.mu.Lock()
	err = lead.coord.AdoptDevices(boot, ids)
	g.mu.Unlock()
	boot.Close()
	if err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// buildReplica constructs one replica: durable storage, a loopback
// client owned by the replica, gauges, and a standby
// coordinator wired to the group's node resolver.
func (g *Group) buildReplica(id string, idx uint64) error {
	r := &Replica{
		id:        id,
		grp:       g,
		foldedLog: foldedLog{st: &logStore{}},
		match:     make(map[string]int64),
		gTerm: g.reg.Gauge("ssdcheck_cluster_term",
			"Replication term the replica is at.", obs.Label{Name: "replica", Value: id}),
		gLeader: g.reg.Gauge("ssdcheck_cluster_is_leader",
			"1 while the replica holds the lease.", obs.Label{Name: "replica", Value: id}),
	}
	if g.cfg.Dir != "" {
		r.st.dir = filepath.Join(g.cfg.Dir, id)
	}
	tr, err := NewLoopbackTransport(RPCPolicy{}, nil, g.cpol.Seed^(idx+0x7265706c), obs.NewRegistry())
	if err == nil {
		r.tr = tr
		err = r.st.open()
	}
	if err == nil {
		err = r.rebuildStandby()
	}
	if err != nil {
		r.st.close()
		return err
	}
	g.replicas[id] = r
	return nil
}

// resolveNode maps replicated membership records back to the group's
// live node handles during standby replay and takeover.
func (g *Group) resolveNode(id, addr string) (*Node, error) {
	if n, ok := g.nodesByID[id]; ok {
		return n, nil
	}
	return RemoteResolver(id, addr)
}

// quorum is the majority size over the full replica set.
func (g *Group) quorum() int { return len(g.replicas)/2 + 1 }

// linkUpLocked reports whether two replicas can exchange peer-plane
// messages: neither side sits behind the partition matrix. Crash state
// is the caller's check — a crashed replica is a dead process, not a
// cut link.
func (g *Group) linkUpLocked(a, b string) bool {
	return !g.partitioned[a] && !g.partitioned[b]
}

// currentLeaderLocked returns the live leader — un-crashed, un-deposed,
// highest term if chaos has produced two — or nil during an outage.
func (g *Group) currentLeaderLocked() *Replica {
	var lead *Replica
	for _, id := range g.order {
		r := g.replicas[id]
		if r.role != RoleLeader || r.crashed || r.deposed {
			continue
		}
		if lead == nil || r.st.term > lead.st.term {
			lead = r
		}
	}
	return lead
}

// settleLocked demotes every leader that has witnessed a newer term —
// through a peer's response or a fenced node-plane RPC. Runs at the
// safe points between protocol steps; the deposed flag is only ever
// set, never acted on, inside them.
func (g *Group) settleLocked() error {
	for _, id := range g.order {
		r := g.replicas[id]
		if r.deposed && !r.crashed && r.role == RoleLeader {
			if err := g.demoteLocked(r); err != nil {
				return err
			}
		}
		r.deposed = r.deposed && r.role == RoleLeader
	}
	return nil
}

// takeoverLocked installs a replica as leader for a new term: persist
// the term, warm the standby with the replica's entire log (committed
// prefix plus any inherited uncommitted tail), activate it, assert
// leadership with a replicated noop (committing the tail), fence the
// node plane, and reconcile physical placement against the committed
// log.
func (g *Group) takeoverLocked(r *Replica, newTerm int64) error {
	if err := r.st.setTerm(newTerm); err != nil {
		return err
	}
	// Warm the standby with everything local. Entries past commit are
	// not yet known safe, but the noop below commits them before any
	// new decision is proposed; if the noop cannot reach a quorum the
	// lease lapses and demotion rebuilds from the committed prefix.
	if err := r.catchUp(r.st.last()); err != nil {
		return err
	}
	r.role = RoleLeader
	r.leader = r.id
	r.failedCommits = 0
	r.deposed = false
	r.lastHeard = g.round
	for _, pid := range g.order {
		if pid != r.id {
			r.match[pid] = 0
		}
	}
	tok := FencingToken{Term: newTerm, Leader: r.id}
	r.coord.activate(tok, func() { r.deposed = true })
	g.cElections.Inc()
	r.gTerm.Set(newTerm)
	r.gLeader.Set(1)

	r.coord.mu.Lock()
	err := r.propose(walRecord{Type: "noop"})
	r.coord.mu.Unlock()
	if err != nil {
		if errors.Is(err, ErrNoQuorum) || errors.Is(err, ErrStaleTerm) {
			// Elected without a reachable quorum having stayed put:
			// count it against the lease and let the round machinery
			// sort it out.
			r.failedCommits++
			return nil
		}
		return err
	}
	r.coord.fenceMembers()
	if _, err := r.coord.Reconcile(); err != nil {
		return err
	}
	return nil
}

// demoteLocked turns a leader back into a follower: the live
// coordinator is discarded and a fresh standby is rebuilt from the
// snapshot and committed log prefix — which also drops any uncommitted
// tail a quorumless leader applied when it took over.
func (g *Group) demoteLocked(r *Replica) error {
	r.role = RoleFollower
	r.deposed = false
	r.leasePinned = false
	r.failedCommits = 0
	r.lastHeard = g.round // grace period before campaigning again
	r.gLeader.Set(0)
	r.gTerm.Set(r.st.term)
	return r.rebuildStandby()
}

// crashLocked kills a replica process: coordinator gone, volatile
// protocol state gone, durable (term, snapshot, log) intact.
func (g *Group) crashLocked(r *Replica) {
	if r.crashed {
		return
	}
	r.crashed = true
	if r.role == RoleLeader {
		r.gLeader.Set(0)
	}
	r.role = RoleFollower
	r.deposed = false
	r.leasePinned = false
	r.failedCommits = 0
	r.match = make(map[string]int64)
	r.coord.Close()
	r.coord = nil
	r.st.close()
}

// restartLocked brings a crashed replica back as a follower: durable
// state reloads (from disk in directory mode, from the surviving
// in-memory copy otherwise), the standby starts from the replica's own
// snapshot, and volatile state resets — commit restarts at the
// snapshot index and the rest is rediscovered from the leader's commit
// piggyback on the next append.
func (g *Group) restartLocked(r *Replica) error {
	if !r.crashed {
		return nil
	}
	if err := r.st.open(); err != nil {
		return err
	}
	r.role = RoleFollower
	r.leader = ""
	r.commit = 0
	r.applyErr = nil
	r.lastHeard = g.round
	r.gTerm.Set(r.st.term)
	if err := r.rebuildStandby(); err != nil {
		return err
	}
	r.crashed = false
	return nil
}

// electLocked runs at most one deterministic election per round:
// timed-out followers are considered in sorted ID order, each gathers
// the election-relevant status of every reachable un-crashed replica,
// and the one that would win — freshest log by (last term, length),
// lowest ID on ties — takes over with a term above everything seen.
// A candidate that cannot reach a quorum, or that sees a better log
// elsewhere, stands down and waits.
func (g *Group) electLocked() error {
	for _, id := range g.order {
		r := g.replicas[id]
		if r.crashed || r.role != RoleFollower {
			continue
		}
		if g.round-r.lastHeard < electionTimeoutRounds {
			continue
		}
		statuses := []PeerStatus{r.status()}
		for _, pid := range g.order {
			if pid == id {
				continue
			}
			p := g.replicas[pid]
			if p.crashed || !g.linkUpLocked(id, pid) {
				continue
			}
			statuses = append(statuses, p.status())
		}
		if len(statuses) < g.quorum() {
			continue
		}
		win := statuses[0]
		var maxTerm int64
		for _, s := range statuses {
			if s.Term > maxTerm {
				maxTerm = s.Term
			}
			if s.ID == win.ID {
				continue
			}
			if s.LastTerm > win.LastTerm ||
				(s.LastTerm == win.LastTerm && s.LastIndex > win.LastIndex) ||
				(s.LastTerm == win.LastTerm && s.LastIndex == win.LastIndex && s.ID < win.ID) {
				win = s
			}
		}
		if win.ID != id {
			continue // the winner campaigns on its own timeout
		}
		return g.takeoverLocked(r, maxTerm+1)
	}
	return nil
}

// applyChaosLocked runs the leader-fault schedule's window edges for
// this round. Each fault latches onto whoever leads when its window
// opens (or the first leader to appear inside it) and releases at the
// window's close: a crash restarts the replica, a partition heals, a
// duel unpins. DuelingLeader is LeaderPartition plus a pinned lease —
// the old leader refuses to abdicate, so only node-plane fencing can
// end its reign.
func (g *Group) applyChaosLocked() error {
	crash := g.nf.LeaderCrashed()
	if !crash && g.chaosCrash != "" {
		if err := g.restartLocked(g.replicas[g.chaosCrash]); err != nil {
			return err
		}
		g.chaosCrash = ""
	}
	if crash && g.chaosCrash == "" {
		if lead := g.currentLeaderLocked(); lead != nil {
			g.crashLocked(lead)
			g.chaosCrash = lead.id
		}
	}

	duel := g.nf.LeaderDueling()
	part := g.nf.LeaderPartitioned() // true for both partition and duel windows
	if !part && g.chaosPart != "" {
		delete(g.partitioned, g.chaosPart)
		g.chaosPart = ""
	}
	if !duel && g.chaosPin != "" {
		g.replicas[g.chaosPin].leasePinned = false
		g.chaosPin = ""
	}
	if part && g.chaosPart == "" {
		if lead := g.currentLeaderLocked(); lead != nil {
			g.partitioned[lead.id] = true
			g.chaosPart = lead.id
			if duel && g.chaosPin == "" {
				lead.leasePinned = true
				g.chaosPin = lead.id
			}
		}
	}
	return nil
}

// Tick runs one group round: settle pending demotions, advance the
// chaos schedule, drive every live leader's coordinator through one
// heartbeat round (a leader whose proposals cannot reach a quorum
// burns lease rounds and abdicates), then run the election if any
// follower's timeout has lapsed.
func (g *Group) Tick() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrCoordinatorClosed
	}
	g.round++
	if err := g.settleLocked(); err != nil {
		return err
	}
	if g.nf != nil {
		g.nf.BeginRound()
		if err := g.applyChaosLocked(); err != nil {
			return err
		}
	}
	if err := g.settleLocked(); err != nil {
		return err
	}
	for _, id := range g.order {
		r := g.replicas[id]
		if r.crashed || r.role != RoleLeader {
			continue
		}
		err := r.coord.Tick()
		switch {
		case err == nil:
			r.failedCommits = 0
		case errors.Is(err, ErrNoQuorum) || errors.Is(err, ErrStaleTerm) || errors.Is(err, ErrNotLeader):
			r.failedCommits++
			if r.failedCommits >= leaseRounds && !r.leasePinned && !r.deposed {
				if derr := g.demoteLocked(r); derr != nil {
					return derr
				}
			}
		default:
			return err
		}
	}
	if err := g.settleLocked(); err != nil {
		return err
	}
	return g.electLocked()
}

// Submit routes a batch through the current leader's coordinator.
// ErrNoLeader while the group is between leaders — callers queue and
// retry after the next Tick, the way clients of any leader-based
// system ride out an election.
func (g *Group) Submit(reqs []fleet.Request) ([]Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrCoordinatorClosed
	}
	if err := g.settleLocked(); err != nil {
		return nil, err
	}
	lead := g.currentLeaderLocked()
	if lead == nil {
		return nil, ErrNoLeader
	}
	out, err := lead.coord.Submit(reqs)
	if serr := g.settleLocked(); serr != nil && err == nil {
		err = serr
	}
	return out, err
}

// GroupStatus is the group's point-in-time view.
type GroupStatus struct {
	Round  int64  `json:"round"`
	Term   int64  `json:"term"`
	Leader string `json:"leader,omitempty"`
	Quorum int    `json:"quorum"`
	// FencingRejections is the node-plane total: stale-term RPCs the
	// nodes' APIs bounced.
	FencingRejections int64           `json:"fencing_rejections"`
	Replicas          []ReplicaStatus `json:"replicas"`
}

// Status reports the group's replicas in ID order.
func (g *Group) Status() GroupStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GroupStatus{
		Round:             g.round,
		Quorum:            g.quorum(),
		FencingRejections: g.fencingRejectionsLocked(),
	}
	if lead := g.currentLeaderLocked(); lead != nil {
		st.Leader = lead.id
	}
	for _, id := range g.order {
		r := g.replicas[id]
		st.Term = max(st.Term, r.st.term)
		st.Replicas = append(st.Replicas, ReplicaStatus{
			ID:            r.id,
			Role:          r.role,
			Term:          r.st.term,
			Commit:        r.commit,
			Applied:       r.applied,
			LastIndex:     r.st.last(),
			SnapshotIndex: r.st.snap.Index,
			Leader:        r.leader,
			Crashed:       r.crashed,
			Partitioned:   g.partitioned[r.id],
			FailedCommits: r.failedCommits,
		})
	}
	return st
}

// Leader returns the live leader's coordinator, or nil during an
// outage. The handle is only valid until the next Tick — failover
// replaces it.
func (g *Group) Leader() *Coordinator {
	g.mu.Lock()
	defer g.mu.Unlock()
	if lead := g.currentLeaderLocked(); lead != nil {
		return lead.coord
	}
	return nil
}

// LeaderID returns the live leader's replica ID, or "".
func (g *Group) LeaderID() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if lead := g.currentLeaderLocked(); lead != nil {
		return lead.id
	}
	return ""
}

// Registry returns the group-level metrics registry.
func (g *Group) Registry() *obs.Registry { return g.reg }

// Nodes returns the data-plane members in join order.
func (g *Group) Nodes() []*Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Node(nil), g.nodes...)
}

// Replica returns a replica's status by ID.
func (g *Group) Replica(id string) (ReplicaStatus, bool) {
	st := g.Status()
	for _, r := range st.Replicas {
		if r.ID == id {
			return r, true
		}
	}
	return ReplicaStatus{}, false
}

// ReplicaLog returns a copy of the entries a replica holds after its
// snapshot.
func (g *Group) ReplicaLog(id string) []LogEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.replicas[id]
	if r == nil {
		return nil
	}
	return append([]LogEntry(nil), r.st.entries...)
}

// CheckLogs verifies the replicated log's agreement invariant: every
// index that two replicas both hold carries the same entry, and
// snapshots taken at the same index are byte-identical.
func (g *Group) CheckLogs() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	type held struct {
		id  string
		buf []byte
	}
	seen := make(map[string]held)
	for _, id := range g.order {
		st := g.replicas[id].st
		for i := -1; i < len(st.entries); i++ {
			key, v := fmt.Sprintf("snapshot %d", st.snap.Index), any(st.snap)
			if i >= 0 {
				key, v = fmt.Sprintf("entry %d", st.entries[i].Index), st.entries[i]
			} else if st.snap.State == nil {
				continue
			}
			buf, err := json.Marshal(v)
			if err != nil {
				return err
			}
			if h, ok := seen[key]; ok && !bytes.Equal(h.buf, buf) {
				return fmt.Errorf("cluster: %s differs between %s and %s:\n%s\nvs\n%s", key, h.id, id, h.buf, buf)
			}
			seen[key] = held{id, buf}
		}
	}
	return nil
}

// ReplicaIDs returns the replica IDs in sorted order.
func (g *Group) ReplicaIDs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

// ReplicaCoordinator returns a replica's current coordinator handle —
// the live one on the leader, the standby shadow elsewhere. Tests use
// it to compare placement and transition logs across replicas.
func (g *Group) ReplicaCoordinator(id string) *Coordinator {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.replicas[id]
	if r == nil {
		return nil
	}
	return r.coord
}

// onReplica runs fn on a replica under the group lock.
func (g *Group) onReplica(id string, fn func(r *Replica) error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.replicas[id]
	if r == nil {
		return fmt.Errorf("replica %q: %w", id, ErrUnknownNode)
	}
	return fn(r)
}

// ReplicaErr returns a replica's first recorded apply/storage error
// (nil in a healthy group).
func (g *Group) ReplicaErr(id string) error {
	return g.onReplica(id, func(r *Replica) error { return r.applyErr })
}

func (g *Group) fencingRejectionsLocked() int64 {
	var total int64
	for _, n := range g.nodes {
		total += n.API().FencingRejections()
	}
	return total
}

// Elections returns the number of completed leadership elections
// (including the bootstrap one).
func (g *Group) Elections() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cElections.Value()
}

// Crash kills a replica by ID — manual chaos for tests; the scheduled
// kind is faults.LeaderCrash.
func (g *Group) Crash(id string) error {
	return g.onReplica(id, func(r *Replica) error { g.crashLocked(r); return nil })
}

// Restart brings a crashed replica back as a follower.
func (g *Group) Restart(id string) error { return g.onReplica(id, g.restartLocked) }

// Partition cuts a replica off the peer plane (node plane unaffected).
func (g *Group) Partition(id string) error {
	return g.onReplica(id, func(*Replica) error { g.partitioned[id] = true; return nil })
}

// Heal reconnects a partitioned replica.
func (g *Group) Heal(id string) error {
	return g.onReplica(id, func(*Replica) error { delete(g.partitioned, id); return nil })
}

// Close shuts every replica's coordinator, the replica logs, and the
// node plane down.
func (g *Group) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	reps := make([]*Replica, 0, len(g.replicas))
	for _, id := range g.order {
		reps = append(reps, g.replicas[id])
	}
	nodes := g.nodes
	g.mu.Unlock()
	for _, r := range reps {
		if r.coord != nil {
			r.coord.Close()
		}
		r.st.close()
	}
	for _, n := range nodes {
		n.Close()
	}
}
