package cluster

import (
	"fmt"
	"maps"
	"time"

	"ssdcheck/internal/obs"
)

// Replicated coordination: a raft-lite placement log. The group's
// leader runs the live Coordinator; every record it proposes is
// appended to the leader's log and streamed to the standby replicas,
// and the mutation it describes applies only once a quorum holds the
// record — on the leader as on every standby, through the same
// applyRecord. Only the leader moves devices, after its apply; standbys
// fold committed records into shadow coordinators, so any of them can
// take over with the full placement/health/breaker state machines
// already warm.
//
// Entries are (term, index)-stamped. Terms are leadership epochs:
// adopted and persisted before any action under them, compared on
// every peer append, and carried onto the node plane as the fencing
// token — the mechanism that makes two leaders from one log lineage
// safe (the stale one's node RPCs bounce with ErrStaleTerm and it
// demotes). The usual raft safety argument applies in miniature: a
// committed entry is on a quorum, every electable winner's log
// contains it (elections require a quorum of reachable peers and pick
// the longest log), and uncommitted entries never drive a physical
// move, so failover can lose nothing that was promised and apply
// nothing twice.
//
// Every replica's log compacts at multiples of compactEvery over
// committed entries (log.go): each replica snapshots its coordinator
// when it has applied that index. A follower whose position the leader
// has compacted away receives the leader's snapshot with the next
// append and restores its standby from it instead of replaying from
// index 1.

// Role is a replica's position in the group.
type Role uint8

const (
	// RoleFollower replays committed entries into a standby
	// coordinator.
	RoleFollower Role = iota
	// RoleLeader runs the live coordinator and streams the log.
	RoleLeader
)

// String names the role for logs and JSON.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleLeader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// MarshalText renders the role name in JSON.
func (r Role) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a role name, so status payloads round-trip.
func (r *Role) UnmarshalText(b []byte) error {
	switch string(b) {
	case "follower":
		*r = RoleFollower
	case "leader":
		*r = RoleLeader
	default:
		return fmt.Errorf("cluster: unknown role %q", b)
	}
	return nil
}

// AppendRequest is the leader→follower replication message: every
// entry past what the leader believes the follower holds, plus the
// leader's commit index for the follower to apply up to.
type AppendRequest struct {
	// Term and Leader identify the sender's epoch.
	Term   int64  `json:"term"`
	Leader string `json:"leader"`
	// Snapshot, when the follower's position is below the leader's
	// compaction point, is the leader's snapshot; Prev is then its
	// index.
	Snapshot *logSnapshot `json:"snapshot,omitempty"`
	// Prev is the index the Entries extend from (the follower must
	// hold entries 1..Prev).
	Prev int64 `json:"prev"`
	// Entries are the log records from Prev+1 on.
	Entries []LogEntry `json:"entries,omitempty"`
	// Commit is the leader's commit index; the follower applies its
	// log up to min(Commit, its last index).
	Commit int64 `json:"commit"`
}

// AppendResponse is the follower's answer.
type AppendResponse struct {
	// Term is the follower's (possibly newer) term; a response term
	// above the sender's own means the sender has been superseded.
	Term int64 `json:"term"`
	// Ok reports whether the entries were accepted.
	Ok bool `json:"ok"`
	// LastIndex is the follower's last log index after the call — the
	// leader's next Prev for this peer.
	LastIndex int64 `json:"last_index"`
}

// PeerStatus is one replica's election-relevant state.
type PeerStatus struct {
	ID        string `json:"id"`
	Term      int64  `json:"term"`
	LastIndex int64  `json:"last_index"`
	LastTerm  int64  `json:"last_term"`
}

// ReplicaStatus is one replica's point-in-time view for status
// surfaces and tests.
type ReplicaStatus struct {
	ID            string `json:"id"`
	Role          Role   `json:"role"`
	Term          int64  `json:"term"`
	Commit        int64  `json:"commit"`
	Applied       int64  `json:"applied"`
	LastIndex     int64  `json:"last_index"`
	SnapshotIndex int64  `json:"snapshot_index"`
	Leader        string `json:"leader,omitempty"`
	Crashed       bool   `json:"crashed,omitempty"`
	Partitioned   bool   `json:"partitioned,omitempty"`
	FailedCommits int    `json:"failed_commits,omitempty"`
}

// Replica is one member of the coordination group: a durable
// (term, snapshot, log) store, a shadow or live coordinator, and the
// replication protocol endpoints. All replica state is guarded by the
// owning Group's lock — the group drives every replica from its own
// single-threaded Tick/Submit calls, so replicas carry no lock of
// their own and propose can be invoked from a coordinator that already
// runs under the group.
type Replica struct {
	id  string
	grp *Group

	// The log's st is the durable state, in <Dir>/<id>/ or in memory
	// (where it plays the disk: a crash clears only the volatile state);
	// its coord is live when leader, standby otherwise; commit is the
	// highest quorum-acknowledged index.
	foldedLog

	// Volatile state — reset by a crash.
	role          Role
	leader        string           // leader last heard from
	lastHeard     int64            // group round a leader was last heard in
	match         map[string]int64 // leader-only: per-peer replicated index
	failedCommits int              // consecutive proposals without quorum
	crashed       bool
	deposed       bool  // a newer term was witnessed; settle demotes
	leasePinned   bool  // chaos: refuse lease-lapse demotion (dueling leader)
	applyErr      error // first standby-apply failure, surfaced by status

	tr *LoopbackTransport

	gTerm, gLeader *obs.Gauge
}

// fail records the replica's first apply or storage error.
func (r *Replica) fail(err error) {
	if err != nil && r.applyErr == nil {
		r.applyErr = err
	}
}

// status captures the replica's election-relevant state.
func (r *Replica) status() PeerStatus {
	return PeerStatus{ID: r.id, Term: r.st.term, LastIndex: r.st.last(), LastTerm: r.st.termAt(r.st.last())}
}

// rebuildStandby replaces the replica's coordinator with a fresh
// standby restored from the replica's snapshot and caught up to its
// commit index: at start, after a demotion (which also discards any
// uncommitted tail a quorumless leader applied at takeover), a
// restart, or an installed snapshot. The standby proposes through the
// replica, which refuses while it is not the leader. It gets a private
// registry; cluster-visible metrics come from the active coordinator
// and the group.
func (r *Replica) rebuildStandby() error {
	sb, err := restoreCoordinator(r.grp.cpol, r.tr, nil, r.st.snap.State, r.grp.resolveNode)
	if err != nil {
		return err
	}
	sb.rep = r
	if r.coord != nil {
		r.coord.Close()
	}
	r.coord = sb
	r.applied = r.st.snap.Index
	r.commit = max(r.commit, r.applied)
	return r.catchUp(r.commit)
}

// propose implements the coordinator's proposer seam: append the
// record to the leader's own log (fsynced), stream it to every
// reachable peer in sorted order, and return nil only once a quorum
// (the leader included) holds it. On quorum the entry commits — and so
// does everything before it, including any tail left uncommitted by
// earlier quorum failures — and applies into the live coordinator.
// Called with the group's lock and the coordinator's lock held (the
// coordinator invoking it runs under Group.Tick/Submit).
func (r *Replica) propose(rec walRecord) error {
	if r.crashed {
		return fmt.Errorf("replica %q: %w", r.id, ErrNodeDown)
	}
	if r.role != RoleLeader {
		return fmt.Errorf("replica %q: %w", r.id, ErrNotLeader)
	}
	e := LogEntry{Term: r.st.term, Index: r.st.last() + 1, Rec: rec}
	if err := r.st.append(e); err != nil {
		return err
	}
	acks := 1 // self
	for _, pid := range r.grp.order {
		if pid == r.id {
			continue
		}
		p := r.grp.replicas[pid]
		if p.crashed || !r.grp.linkUpLocked(r.id, pid) {
			r.grp.hLag.Observe(time.Duration(e.Index - r.match[pid]))
			continue
		}
		req := AppendRequest{Term: r.st.term, Leader: r.id, Prev: min(r.match[pid], e.Index-1), Commit: r.commit}
		if req.Prev < r.st.snap.Index {
			snap := r.st.snap
			req.Snapshot, req.Prev = &snap, snap.Index
		}
		req.Entries = append([]LogEntry(nil), r.st.after(req.Prev)...)
		resp := p.handleAppend(req)
		if resp.Term > r.st.term {
			// A peer is ahead: this leadership is over. Adopt the term
			// (durably) and report up; the group demotes at the next
			// settle point.
			if err := r.st.setTerm(resp.Term); err != nil {
				return err
			}
			r.deposed = true
			return fmt.Errorf("replica %q: peer at term %d: %w", r.id, resp.Term, ErrStaleTerm)
		}
		// On a gap, resynchronize from what the peer actually holds.
		r.match[pid] = resp.LastIndex
		if resp.Ok {
			acks++
		}
		r.grp.hLag.Observe(time.Duration(e.Index - r.match[pid]))
	}
	if q := r.grp.quorum(); acks < q {
		return fmt.Errorf("replica %q: %d/%d acks: %w", r.id, acks, q, ErrNoQuorum)
	}
	r.commit = e.Index
	return r.applyUpTo(r.commit)
}

// handleAppend is the follower-side replication endpoint: term check,
// snapshot install, gap check, conflict truncation, append, and
// apply-to-commit. Called with the group's lock held.
func (p *Replica) handleAppend(req AppendRequest) AppendResponse {
	if p.crashed || req.Term < p.st.term {
		// Dead, or a stale leader: reject so it learns the newer term.
		return AppendResponse{Term: p.st.term}
	}
	if req.Term > p.st.term {
		p.fail(p.st.setTerm(req.Term))
		if p.role == RoleLeader {
			// Two leaders, and the other one is newer: concede.
			p.deposed = true
		}
	}
	p.leader = req.Leader
	p.lastHeard = p.grp.round
	if req.Snapshot != nil {
		p.fail(p.installSnapshot(*req.Snapshot))
	}
	if req.Prev > p.st.last() {
		return AppendResponse{Term: p.st.term, Ok: false, LastIndex: p.st.last()}
	}
	for _, e := range req.Entries {
		if e.Index <= p.st.snap.Index {
			continue // compacted: committed, so already held
		}
		if e.Index <= p.st.last() {
			if p.st.termAt(e.Index) == e.Term {
				continue // already hold it
			}
			// Conflict: a deposed leader's uncommitted tail. Committed
			// entries can never conflict (they are on every electable
			// leader's log), so the truncation stays above commit.
			if e.Index <= p.commit {
				p.fail(fmt.Errorf("cluster: replica %q: conflict at committed index %d", p.id, e.Index))
			}
			p.fail(p.st.truncate(e.Index - 1))
		}
		p.fail(p.st.append(e))
	}
	p.commit = max(p.commit, min(req.Commit, p.st.last()))
	// A still-leader replica (dueling, about to be settled out) must
	// not replay into its live coordinator; its standby is rebuilt from
	// the committed prefix at demotion.
	if p.role == RoleFollower {
		p.fail(p.catchUp(p.commit))
	}
	return AppendResponse{Term: p.st.term, Ok: true, LastIndex: p.st.last()}
}

// installSnapshot adopts a leader's snapshot at an index this replica
// does not hold: the log restarts after it, and a follower's standby is
// restored from it rather than replayed from index 1. A snapshot at an
// index the replica already holds is ignored.
func (p *Replica) installSnapshot(s logSnapshot) error {
	if s.Index <= p.st.snap.Index || (s.Index <= p.st.last() && p.st.termAt(s.Index) == s.Term) {
		return nil
	}
	if err := p.st.install(s, nil); err != nil {
		return err
	}
	p.grp.cInstalls.Inc()
	p.commit = s.Index
	if p.role != RoleFollower {
		return nil // a still-leader's standby is rebuilt at demotion
	}
	return p.rebuildStandby()
}

// activate flips a standby coordinator live at takeover: node-plane
// RPCs carry the new term's fencing token, and fencing rejections
// report back through onDeposed.
func (c *Coordinator) activate(fence FencingToken, onDeposed func()) {
	c.mu.Lock()
	c.fence = fence
	c.onDeposed = onDeposed
	c.deposedSeen = false
	c.mu.Unlock()
	c.tr.SetFence(fence)
}

// fenceMembers pushes the new term onto the node plane: one
// best-effort heartbeat per member, carrying the fencing token, so
// every reachable node adopts the term immediately and a deposed
// leader's next RPC bounces rather than racing the lease.
func (c *Coordinator) fenceMembers() {
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		nodes = append(nodes, c.members[id].node)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		_, _ = c.tr.Heartbeat(n)
	}
}

// Reconcile repairs physical placement drift after a failover: every
// device whose actual holder (the member whose manager has it)
// disagrees with the committed placement map is moved back to where
// the log says it belongs. A member without a local manager is seen
// to hold only the strays a refused move returned to it. The repair is
// purely physical — no placement entry, no seq bump — because the
// committed log is the authority and reconciliation makes reality
// match it, so replicas stay byte-identical whether or not a repair
// ran. Idempotent: a
// device already home is left alone, and in the common case (the old
// leader died between operations, not mid-move) nothing moves at all.
// Returns the number of devices moved.
func (c *Coordinator) Reconcile() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrCoordinatorClosed
	}
	holders := maps.Clone(c.strays)
	for _, id := range c.order {
		m := c.members[id].node.Manager()
		if m == nil {
			continue
		}
		for _, dev := range m.DeviceIDs() {
			holders[dev] = id
		}
	}
	moved := 0
	for _, dev := range c.devOrder {
		want := c.placement[dev]
		have, ok := holders[dev]
		if !ok || have == want {
			continue
		}
		if err := c.moveDeviceLocked(dev, have, want); err != nil {
			return moved, err
		}
		moved++
	}
	return moved, nil
}
