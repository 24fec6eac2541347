package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/fsm"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
)

// member is one node's coordinator-side state: the node handle plus
// its position in the health state machine (fleet.Health, driven here
// by heartbeat outcomes instead of request outcomes).
type member struct {
	node   *Node
	health fleet.Health
	misses int // consecutive missed heartbeats
	beats  int // consecutive on-deadline heartbeats

	// Circuit breaker position (see breaker.go): driven under the
	// coordinator lock by submit RPC outcomes, cooled down on the
	// Tick-driven virtual clock.
	brk         BreakerState
	brkFails    int // consecutive failed submit RPCs
	brkOpenedAt simclock.Time
}

// Coordinator is the cluster control plane: it owns the placement ring
// and device→node map, drives the heartbeat rounds and node health
// state machines, performs failover and rebalancing, and fans batched
// submits out to the owning nodes.
//
// The coordinator is a fold of its committed log. Its entry points —
// Join, Leave, AdoptDevices, Tick, and a breaker-touching Submit — only
// compute a record and propose it; the log applies each record once it
// commits, through applyRecord, on a live coordinator exactly as on a
// standby or a recovering one. Devices move after that apply, for the
// placement entries it appended. Every decision iterates devices in
// first-placement order, so the seq-stamped placement and transition
// logs are byte-identical across runs and GOMAXPROCS settings.
// Heartbeats and submit sub-batches fan out in parallel goroutines,
// but their outcomes are resolved in membership and input order.
type Coordinator struct {
	mu  sync.Mutex
	pol Policy
	tr  *rpcClient // the one path to the members, over either carrier

	ring      *Ring
	members   map[string]*member
	order     []string          // node IDs in join order
	placement map[string]string // device ID → node ID
	devOrder  []string          // device IDs in first-placement order
	strays    map[string]string // device ID → member a refused move left it on

	now    simclock.Time // cluster virtual clock, advanced by Tick
	round  int64         // heartbeat rounds so far
	seq    int64         // shared event sequence for both logs
	closed bool

	placelog   []PlacementEntry
	translog   []NodeTransition
	breakerlog []BreakerTransition

	// rep is the log every decision is proposed to and applied from: a
	// Group replica (quorum acknowledgement, replica.go) or a one-replica
	// log (recover.go), on disk or in memory. resolver maps logged
	// membership records back to node handles; pending is the handle of
	// the node an in-flight Join or Leave concerns, which the join's apply
	// takes instead of resolving the logged address and a leave's moves
	// still reach after the apply drops it from membership. fence stamps
	// this coordinator's term onto node-plane RPCs; onDeposed fires once
	// when a node or peer authoritatively reports the term is stale.
	rep         proposer
	resolver    NodeResolver
	pending     *Node
	fence       FencingToken
	onDeposed   func()
	deposedSeen bool

	// Cluster-level registry: coordinator series live here unlabeled;
	// the merged exposition injects node labels into per-node series.
	// Its gauges read the coordinator's state under mu when rendered.
	reg           *obs.Registry
	cMoves        *obs.Counter
	cSubmitFails  *obs.Counter
	cFenceRejects *obs.Counter
}

// proposer is the coordinator's log: propose returns nil once the
// record — and any uncommitted tail before it — is committed
// (quorum-acknowledged, or appended to a one-replica log) and applied
// to the coordinator. Called with the coordinator's lock held.
type proposer interface {
	propose(rec walRecord) error
}

// newCoordinator builds an empty cluster with neither a log nor a
// resolver; restoreCoordinator and OpenCoordinator give it both. tr
// and reg are as for OpenCoordinator.
func newCoordinator(pol Policy, tr *rpcClient, reg *obs.Registry) *Coordinator {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tr == nil {
		tr, _ = NewLoopbackTransport(RPCPolicy{}, nil, pol.Seed, reg) // no fault plan, no error
	}
	p := pol.withDefaults()
	c := &Coordinator{
		pol:       p,
		tr:        tr,
		ring:      NewRing(p.Seed, virtualNodes),
		members:   make(map[string]*member),
		placement: make(map[string]string),
		strays:    make(map[string]string),
		reg:       reg,
	}
	reg.GaugeFunc("ssdcheck_cluster_nodes", "Known cluster members.", obs.Locked(&c.mu, func() int64 { return int64(len(c.order)) }))
	reg.GaugeFunc("ssdcheck_cluster_nodes_in_service", "Members currently owning placement arcs.", obs.Locked(&c.mu, c.inServiceLocked))
	reg.GaugeFunc("ssdcheck_cluster_devices", "Devices placed across the cluster.", obs.Locked(&c.mu, func() int64 { return int64(len(c.devOrder)) }))
	reg.GaugeFunc("ssdcheck_cluster_round", "Heartbeat rounds completed.", obs.Locked(&c.mu, func() int64 { return c.round }))
	c.cMoves = reg.Counter("ssdcheck_cluster_placement_moves_total", "Device migrations (bootstrap placements excluded).")
	c.cSubmitFails = reg.Counter("ssdcheck_cluster_submit_failures_total", "Requests failed cluster-side (unknown device, unreachable node, open breaker).")
	c.cFenceRejects = reg.Counter("ssdcheck_cluster_fencing_rejections_total", "Node-plane RPCs this coordinator had rejected for a stale term (it was superseded).")
	return c
}

// inServiceLocked counts the members owning placement arcs.
func (c *Coordinator) inServiceLocked() int64 {
	n := int64(0)
	for _, id := range c.order {
		if c.ring.Has(id) {
			n++
		}
	}
	return n
}

// bindMemberLocked registers a member's health and breaker-state
// gauges in the cluster registry; leaving drops them.
func (c *Coordinator) bindMemberLocked(id string) {
	lbl := obs.Label{Name: "member", Value: id}
	state := func(v func(mb *member) int64) func() int64 {
		return obs.Locked(&c.mu, func() int64 {
			if mb := c.members[id]; mb != nil {
				return v(mb)
			}
			return 0
		})
	}
	c.reg.GaugeFunc("ssdcheck_cluster_node_health", "Node health state (0=healthy 1=degraded 2=quarantined 3=recovering).",
		state(func(mb *member) int64 { return int64(mb.health) }), lbl)
	c.reg.GaugeFunc("ssdcheck_cluster_breaker_state", "Circuit breaker state (0=closed 1=open 2=half-open).",
		state(func(mb *member) int64 { return int64(mb.brk) }), lbl)
}

// Registry returns the cluster-level registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Round returns the number of completed heartbeat rounds.
func (c *Coordinator) Round() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.round
}

// transitionLocked moves a node to a new health state and logs the
// edge under the shared event sequence.
func (c *Coordinator) transitionLocked(mb *member, to fleet.Health, cause string) {
	moveMemberLocked(c, mb, &mb.health, to, &c.translog, cause)
}

// moveMemberLocked moves one of mb's state machines, whose state is
// *cur, to state to; the edge takes the next event sequence number.
func moveMemberLocked[S comparable](c *Coordinator, mb *member, cur *S, to S, log *[]MemberTransition[S], cause string) {
	edge := MemberTransition[S]{Seq: c.seq + 1, Round: c.round, Node: mb.node.ID(), From: *cur, To: to, Cause: cause}
	if fsm.Move(cur, to, log, edge) {
		c.seq++
	}
}

// placeLocked records one device move in the placement log and the
// device→node map.
func (c *Coordinator) placeLocked(dev, from, to, cause string) {
	c.seq++
	c.placelog = append(c.placelog, PlacementEntry{
		Seq: c.seq, Round: c.round, Device: dev, From: from, To: to, Cause: cause,
	})
	if _, known := c.placement[dev]; !known {
		c.devOrder = append(c.devOrder, dev)
	}
	c.placement[dev] = to
	if from != "" {
		c.cMoves.Inc()
	}
}

// moveDeviceLocked performs the physical half of a migration — the
// device's live state leaves one node's manager and lands in the
// other's — with no bookkeeping. When both endpoints have local
// managers it rides the fleet's portable-device path (full fidelity:
// the predictor's sliding windows move with the device); otherwise the
// RPC client carries the device's wire state between processes. The
// source may be a stopped node: detaching from its (still running)
// manager is the shared-enclosure salvage that failover is built on.
// Reconcile uses it directly: repairing drift means making reality
// match the committed log, not logging a new decision.
//
// A destination that answers with a refusal imported nothing, so the
// state goes back to the source and the device is remembered as a
// stray for Reconcile. An attach whose outcome is unknown (its
// retries ran out without an answer) may have landed; the state is not
// re-attached, and the error says so.
func (c *Coordinator) moveDeviceLocked(dev, from, to string) error {
	src, dst := c.nodeLocked(from), c.nodeLocked(to)
	if src == nil || dst == nil {
		return fmt.Errorf("cluster: moving %q from %q to %q: %w", dev, from, to, ErrUnknownNode)
	}
	fromM, toM := src.Manager(), dst.Manager()
	if fromM != nil && toM != nil {
		pd, err := fromM.Detach(dev)
		if err != nil {
			return fmt.Errorf("cluster: evacuating %q from %q: %w", dev, from, err)
		}
		if err := toM.Attach(pd); err != nil {
			return fmt.Errorf("cluster: placing %q on %q: %w", dev, to, err)
		}
		delete(c.strays, dev)
		return nil
	}
	st, err := c.tr.DetachDevice(src, dev)
	if err != nil {
		return fmt.Errorf("cluster: evacuating %q from %q: %w", dev, from, err)
	}
	err = c.tr.AttachDevice(dst, st)
	switch {
	case err == nil:
		delete(c.strays, dev)
		return nil
	case errors.Is(err, ErrNodeUnreachable):
		return fmt.Errorf("cluster: placing %q on %q: outcome unknown, state not returned to %q: %w", dev, to, from, err)
	}
	if rerr := c.tr.AttachDevice(src, st); rerr != nil {
		return fmt.Errorf("cluster: placing %q on %q: %w; returning it to %q also failed, state lost: %v", dev, to, err, from, rerr)
	}
	c.strays[dev] = from
	return fmt.Errorf("cluster: placing %q on %q: %w; state returned to %q", dev, to, err, from)
}

// nodeLocked returns a member's handle, or the pending Join/Leave
// handle, or nil.
func (c *Coordinator) nodeLocked(id string) *Node {
	if mb := c.members[id]; mb != nil {
		return mb.node
	}
	if c.pending != nil && c.pending.ID() == id {
		return c.pending
	}
	return nil
}

// commitLocked proposes one record and, once the log has committed and
// applied it, makes reality follow the placement entries the apply
// appended: bootstrap entries adopt their device from src, the rest
// move it between members. Moving after the apply means a failed move
// leaves physical drift for Reconcile to repair, never a coordinator
// that disagrees with its log. One failed move does not stop the rest:
// every entry is tried and the error joins each failure.
func (c *Coordinator) commitLocked(rec walRecord, src *fleet.Manager) error {
	from := len(c.placelog)
	if err := c.rep.propose(rec); err != nil {
		return err
	}
	var errs []error
	for _, e := range c.placelog[from:] {
		switch {
		case e.From != "":
			errs = append(errs, c.moveDeviceLocked(e.Device, e.From, e.To))
		case src != nil:
			errs = append(errs, c.adoptOneLocked(src, e.Device, e.To))
		}
	}
	return errors.Join(errs...)
}

// rebalanceLocked re-derives every device's owner from the ring and
// places the ones whose owner changed — the minimal-movement pass run
// after a join or rejoin.
func (c *Coordinator) rebalanceLocked(cause string) {
	for _, dev := range c.devOrder {
		cur := c.placement[dev]
		if target, ok := c.ring.Owner(dev); ok && target != cur {
			c.placeLocked(dev, cur, target, cause)
		}
	}
}

// evacuateLocked takes a node's arcs off the ring and places its
// devices on the owners the ring then names, under the given cause
// (failover, leave). Devices are stranded in place (and logged as
// nothing) only when no node remains in service.
func (c *Coordinator) evacuateLocked(id, cause string) {
	c.ring.Remove(id)
	for _, dev := range c.devOrder {
		if c.placement[dev] != id {
			continue
		}
		if target, ok := c.ring.Owner(dev); ok {
			c.placeLocked(dev, id, target, cause)
		}
	}
}

// Join adds a node to the cluster: it takes its arcs on the ring and
// the rebalance pass migrates the devices those arcs now own. The
// decision commits (quorum-acknowledged or logged) and applies before
// any device moves.
func (c *Coordinator) Join(n *Node) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	if _, dup := c.members[n.ID()]; dup {
		return fmt.Errorf("cluster: duplicate node ID %q", n.ID())
	}
	c.pending = n
	defer func() { c.pending = nil }()
	return c.commitLocked(walRecord{Type: "join", Node: n.ID(), Addr: n.Addr()}, nil)
}

// applyJoin adds a joined member — the pending handle when this is
// the live Join, else the resolved logged address — and rebalances.
func (c *Coordinator) applyJoin(rec walRecord) error {
	if _, dup := c.members[rec.Node]; dup {
		return fmt.Errorf("cluster: duplicate node ID %q", rec.Node)
	}
	n := c.pending
	if n == nil || n.ID() != rec.Node {
		var err error
		if n, err = c.resolver(rec.Node, rec.Addr); err != nil {
			return fmt.Errorf("cluster: recovering member %q: %w", rec.Node, err)
		}
	}
	c.members[rec.Node] = &member{node: n, health: fleet.Healthy}
	c.order = append(c.order, rec.Node)
	c.ring.Add(rec.Node)
	c.bindMemberLocked(rec.Node)
	c.rebalanceLocked("join")
	return nil
}

// Leave removes a node gracefully: its devices migrate to the owners a
// ring without it names, then it is dropped from membership. The node
// itself keeps running; closing it is the caller's business.
func (c *Coordinator) Leave(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	mb, ok := c.members[id]
	if !ok {
		return fmt.Errorf("node %q: %w", id, ErrUnknownNode)
	}
	c.pending = mb.node
	defer func() { c.pending = nil }()
	return c.commitLocked(walRecord{Type: "leave", Node: id}, nil)
}

// applyLeave evacuates a departing member and drops it from
// membership and the registry.
func (c *Coordinator) applyLeave(id string) error {
	if _, ok := c.members[id]; !ok {
		return fmt.Errorf("node %q: %w", id, ErrUnknownNode)
	}
	c.evacuateLocked(id, "leave")
	delete(c.members, id)
	for i, o := range c.order {
		if o == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.reg.DropSeries(obs.Label{Name: "member", Value: id})
	return nil
}

// Kill abruptly stops a node — the process dies, the devices' state
// plane survives. No bookkeeping happens here: the health machine
// notices through missed heartbeats on subsequent Ticks, exactly as it
// would for a remote node.
func (c *Coordinator) Kill(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mb, ok := c.members[id]
	if !ok {
		return fmt.Errorf("node %q: %w", id, ErrUnknownNode)
	}
	mb.node.Stop()
	return nil
}

// Restore brings a killed node's process back. The node answers
// heartbeats again and walks quarantined → recovering → healthy,
// rejoining the ring at the end.
func (c *Coordinator) Restore(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mb, ok := c.members[id]
	if !ok {
		return fmt.Errorf("node %q: %w", id, ErrUnknownNode)
	}
	mb.node.Resume()
	return nil
}

// AdoptDevices performs the initial placement: each device (in the
// given order, which fixes the log order) is placed on the node the
// ring names, and once that commits it is detached from the source
// manager — typically a bootstrap fleet that just diagnosed everything
// — and attached there. Local targets receive the live portable
// handle; remote targets receive the device's wire state over an
// attach RPC.
func (c *Coordinator) AdoptDevices(src *fleet.Manager, ids []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	if c.ring.Len() == 0 {
		return ErrNoNodes
	}
	return c.commitLocked(walRecord{Type: "adopt", Devices: ids}, src)
}

// Bootstrap diagnoses specs in a private bootstrap fleet built from
// tmpl (a fresh registry, no recorder) and adopts every device onto its
// ring owner in spec order. The bootstrap fleet is closed before
// returning; the devices' series repopulate in their nodes' registries
// on attach.
func (c *Coordinator) Bootstrap(tmpl fleet.Config, specs []fleet.DeviceSpec) error {
	tmpl.Devices = specs
	tmpl.Registry = obs.NewRegistry()
	tmpl.Recorder = nil
	tmpl.AllowEmpty = false
	boot, err := fleet.New(tmpl)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap fleet: %w", err)
	}
	defer boot.Close()
	return c.AdoptDevices(boot, boot.DeviceIDs())
}

// adoptOneLocked physically moves one device from the bootstrap
// manager onto its target node.
func (c *Coordinator) adoptOneLocked(src *fleet.Manager, dev, target string) error {
	n := c.members[target].node
	if m := n.Manager(); m != nil {
		pd, err := src.Detach(dev)
		if err != nil {
			return fmt.Errorf("cluster: adopting %q: %w", dev, err)
		}
		if err := m.Attach(pd); err != nil {
			return fmt.Errorf("cluster: adopting %q: %w", dev, err)
		}
		return nil
	}
	st, err := src.ExportDevice(dev)
	if err != nil {
		return fmt.Errorf("cluster: adopting %q: %w", dev, err)
	}
	if err := c.tr.AttachDevice(n, st); err != nil {
		return fmt.Errorf("cluster: adopting %q: %w", dev, err)
	}
	return nil
}

// The heartbeat clock and the node health thresholds, in heartbeat
// rounds of the cluster's virtual clock.
const (
	// heartbeatInterval is the virtual time between heartbeat rounds:
	// each Tick advances the cluster clock by one interval.
	heartbeatInterval = time.Second
	// heartbeatDeadline is the round-trip budget; a slower (or lost)
	// heartbeat counts as a miss.
	heartbeatDeadline = 250 * time.Millisecond
	// degradeAfterMisses consecutive missed heartbeats move a healthy
	// node to degraded.
	degradeAfterMisses = 2
	// quarantineAfterMisses consecutive misses move a degraded node to
	// quarantined: off the ring, devices evacuated.
	quarantineAfterMisses = 4
	// rejoinAfterBeats consecutive on-deadline heartbeats bring a
	// quarantined node (via recovering) back onto the ring.
	rejoinAfterBeats = 2
)

// Tick runs one heartbeat round: the fault plan (if any) advances one
// round, every member is probed in parallel, and the outcomes are
// proposed as one tick record. Applying it advances the cluster clock
// by the heartbeat interval and drives the health state machines in
// membership order — including failover (quarantine + evacuation) and
// rejoin (ring re-entry + rebalance) — and the devices those placed
// move after it.
//
// The round's heartbeat outcomes are the one nondeterministic input the
// health machines consume; the log carries them, so every replica and
// every recovery folds the same round. A replicated leader whose
// proposal fails applies nothing; the round applies when a later
// proposal commits it, or the group demotes the leader once its lease
// lapses.
func (c *Coordinator) Tick() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrCoordinatorClosed
	}
	c.tr.BeginRound()

	type hb struct {
		rtt time.Duration
		err error
	}
	ids := append([]string(nil), c.order...)
	results := make([]hb, len(ids))
	var wg sync.WaitGroup
	wg.Add(len(ids))
	for i, id := range ids {
		go func(i int, n *Node) {
			defer wg.Done()
			rtt, err := c.tr.Heartbeat(n)
			results[i] = hb{rtt, err}
		}(i, c.members[id].node)
	}
	wg.Wait()

	oks := make([]bool, len(ids))
	for i := range ids {
		if errors.Is(results[i].err, ErrStaleTerm) {
			// A node bounced this coordinator's term: it has been
			// superseded. Record the observation and report upward; the
			// rejected probe counts as a miss like any other.
			c.cFenceRejects.Inc()
			c.deposedLocked()
		}
		oks[i] = results[i].err == nil && results[i].rtt <= heartbeatDeadline
	}
	return c.commitLocked(walRecord{Type: "tick", Nodes: ids, OK: oks}, nil)
}

// applyTick folds one heartbeat round from its logged outcomes: the
// clock and round counter advance and each beat or miss drives its
// member's health machine.
func (c *Coordinator) applyTick(rec walRecord) {
	c.round++
	c.now = c.now.Add(heartbeatInterval)
	for i, id := range rec.Nodes {
		mb := c.members[id]
		if mb == nil || i >= len(rec.OK) {
			continue
		}
		if rec.OK[i] {
			c.noteBeatLocked(mb)
		} else {
			c.noteMissLocked(mb)
		}
	}
}

// deposedLocked reports (once) that another coordinator's newer term
// has fenced this one off the node plane.
func (c *Coordinator) deposedLocked() {
	if c.deposedSeen {
		return
	}
	c.deposedSeen = true
	if c.onDeposed != nil {
		c.onDeposed()
	}
}

// noteMissLocked feeds one missed heartbeat into a node's state
// machine.
func (c *Coordinator) noteMissLocked(mb *member) {
	mb.misses++
	mb.beats = 0
	switch mb.health {
	case fleet.Healthy:
		if mb.misses >= degradeAfterMisses {
			c.transitionLocked(mb, fleet.Degraded, "missed heartbeats")
		}
	case fleet.Degraded:
		if mb.misses >= quarantineAfterMisses {
			c.transitionLocked(mb, fleet.Quarantined, "persistent heartbeat loss")
			c.evacuateLocked(mb.node.ID(), "failover")
		}
	case fleet.Recovering:
		c.transitionLocked(mb, fleet.Quarantined, "heartbeat lost during rejoin")
	}
}

// noteBeatLocked feeds one on-deadline heartbeat into a node's state
// machine.
func (c *Coordinator) noteBeatLocked(mb *member) {
	mb.beats++
	mb.misses = 0
	switch mb.health {
	case fleet.Degraded:
		c.transitionLocked(mb, fleet.Healthy, "heartbeat recovered")
	case fleet.Quarantined:
		c.transitionLocked(mb, fleet.Recovering, "heartbeat restored")
		mb.beats = 1
	case fleet.Recovering:
		if mb.beats >= rejoinAfterBeats {
			c.transitionLocked(mb, fleet.Healthy, "rejoin")
			c.ring.Add(mb.node.ID())
			c.rebalanceLocked("rejoin")
		}
	}
}

// Result is one request's outcome with node attribution: the fleet
// result as the owning node produced it, plus which node served it.
type Result struct {
	fleet.Result
	Node string `json:"node,omitempty"`
}

// failedResult synthesizes a cluster-level failure for one request.
func failedResult(dev, node string, err error) Result {
	return Result{
		Result: fleet.Result{DeviceID: dev, Err: err, Error: err.Error()},
		Node:   node,
	}
}

// Submit fans a batch out to the nodes owning each request's device
// and merges the results back in input order. Requests to unknown
// devices fail in place; an RPC failure (partition, dead node)
// fails that node's sub-batch without poisoning the rest — the same
// per-entry failure contract fleet.SubmitBatch has.
//
// The per-node circuit breaker wraps the fan-out: sub-batches for
// members whose breaker is open are synthesized locally with
// ErrBreakerOpen (no RPC, no deadline burned), admit decisions run
// under the lock before the fan-out, and RPC outcomes feed back under
// the lock after it, in membership order — so breaker transitions are
// deterministic and seq-ordered against placement and health edges.
// Only a batch that would move a breaker proposes a record (admit
// before the fan-out, outcome after it); the rest log nothing.
func (c *Coordinator) Submit(reqs []fleet.Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]Result, len(reqs))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoordinatorClosed
	}
	groups := make(map[string][]int) // node ID → indices, input order
	var synthesized int64
	for i, r := range reqs {
		node, ok := c.placement[r.DeviceID]
		if !ok {
			out[i] = failedResult(r.DeviceID, "",
				fmt.Errorf("device %q: %w", r.DeviceID, fleet.ErrUnknownDevice))
			synthesized++
			continue
		}
		groups[node] = append(groups[node], i)
	}
	// Admit in membership order: fast-fail sub-batches for open
	// breakers, let everything else (including half-open probes)
	// through to the fan-out. The admit decision is peeked — pure — and
	// a breaker flip (open → half-open) moves the state machine only
	// through a committed admit record.
	var admitted []string
	nodes := make(map[string]*Node, len(groups))
	wouldFlip := false
	for _, id := range c.order {
		idxs, ok := groups[id]
		if !ok {
			continue
		}
		mb := c.members[id]
		admit, flip := c.breakerPeekLocked(mb)
		if flip {
			wouldFlip = true
		}
		if !admit {
			err := fmt.Errorf("node %q: %w", id, ErrBreakerOpen)
			for _, i := range idxs {
				out[i] = failedResult(reqs[i].DeviceID, id, err)
			}
			synthesized += int64(len(idxs))
			continue
		}
		admitted = append(admitted, id)
		nodes[id] = mb.node
	}
	if wouldFlip {
		if err := c.commitLocked(walRecord{Type: "admit", Nodes: admitted}, nil); err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	c.mu.Unlock()

	failed := make([]bool, len(admitted))
	errs := make([]error, len(admitted))
	var wg sync.WaitGroup
	wg.Add(len(admitted))
	for j, id := range admitted {
		go func(j int, id string, idxs []int) {
			defer wg.Done()
			sub := make([]fleet.Request, len(idxs))
			for k, i := range idxs {
				sub[k] = reqs[i]
			}
			res, err := c.tr.Submit(nodes[id], sub)
			if err != nil {
				failed[j] = true
				errs[j] = err
				for _, i := range idxs {
					out[i] = failedResult(reqs[i].DeviceID, id, err)
				}
				return
			}
			for k, i := range idxs {
				out[i] = Result{Result: res[k], Node: id}
			}
		}(j, id, groups[id])
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.cSubmitFails.Add(synthesized)
	if c.closed {
		return out, nil
	}
	dirty := false
	for j, id := range admitted {
		if errors.Is(errs[j], ErrStaleTerm) {
			// The node plane bounced this coordinator's term: it has
			// been superseded and must demote, not keep serving.
			c.cFenceRejects.Inc()
			c.deposedLocked()
		}
		mb := c.members[id]
		if mb == nil {
			continue // left the cluster mid-flight
		}
		if failed[j] {
			dirty = true
			c.cSubmitFails.Add(int64(len(groups[id])))
		} else if mb.brkFails > 0 || mb.brk == BreakerHalfOpen {
			dirty = true // success resets a tracked streak or closes a probe
		}
	}
	if dirty {
		if err := c.commitLocked(walRecord{Type: "outcome", Nodes: admitted, Failed: failed}, nil); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Nodes returns every member's status in join order.
func (c *Coordinator) Nodes() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	devCount := make(map[string]int, len(c.members))
	for _, n := range c.placement {
		devCount[n]++
	}
	out := make([]NodeStatus, 0, len(c.order))
	for _, id := range c.order {
		mb := c.members[id]
		out = append(out, NodeStatus{
			ID:      id,
			Health:  mb.health,
			InRing:  c.ring.Has(id),
			Devices: devCount[id],
			Misses:  mb.misses,
			Beats:   mb.beats,
		})
	}
	return out
}

// Node returns a member's handle, or nil when unknown.
func (c *Coordinator) Node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	mb, ok := c.members[id]
	if !ok {
		return nil
	}
	return mb.node
}

// Placement returns a copy of the device→node map.
func (c *Coordinator) Placement() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.placement))
	for d, n := range c.placement {
		out[d] = n
	}
	return out
}

// PlacementLog returns the full placement log, oldest first.
func (c *Coordinator) PlacementLog() []PlacementEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]PlacementEntry(nil), c.placelog...)
}

// Transitions returns the full node health-transition log, oldest
// first.
func (c *Coordinator) Transitions() []NodeTransition {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]NodeTransition(nil), c.translog...)
}

// Close stops accepting mutating calls and releases a one-replica
// log's file handle. It does not close the nodes — whoever built them
// (the harness, the daemon) owns their lifecycle — nor a Group
// replica's log, which outlives the replica's coordinators.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if l, ok := c.rep.(*soloLog); ok {
		l.st.close()
	}
}
