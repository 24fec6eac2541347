package faults

import (
	"fmt"
	"time"

	"ssdcheck/internal/fsm"
	"ssdcheck/internal/simclock"
)

// Node-level faults: where the rest of this package breaks individual
// devices, a NodePlan breaks whole cluster members — dropped
// heartbeats, network partitions, slow nodes. The cluster coordinator
// evaluates the plan once per heartbeat round (under its own lock, via
// BeginRound), and the harness transport consults the per-node
// predicates, so fault firing is a pure function of (seed, round
// number) and every cluster test reproduces byte-identically.

// NodeKind enumerates the injectable node-level fault behaviors.
type NodeKind uint8

const (
	// HeartbeatLoss drops the target node's heartbeat responses for the
	// window; submits still go through. Models a wedged health endpoint
	// or a lossy control plane.
	HeartbeatLoss NodeKind = iota
	// Partition makes the target node unreachable for the window:
	// heartbeats are lost and submits fail. Models a network split.
	Partition
	// SlowNode delays the target node's responses by Delay for the
	// window. When Delay exceeds the coordinator's heartbeat deadline
	// the node is indistinguishable from one losing heartbeats — which
	// is the point.
	SlowNode
	// RPCDrop loses submit requests to the target node before they
	// arrive: the node never sees them, the caller burns its RPC
	// deadline and retries. Models packet loss on the request path.
	RPCDrop
	// RPCDuplicate delivers each submit request to the target node
	// twice. A node API deduplicating by idempotency token collapses
	// the pair; anything else double-applies — which is what the fault
	// exists to catch.
	RPCDuplicate
	// RPCDelay adds Delay to submit responses from the target node.
	// When the total exceeds the RPC deadline the response is as good
	// as lost: the caller times out and retries even though the node
	// already executed the request.
	RPCDelay
	// RPCTimeout executes submit requests on the target node but loses
	// the responses: the caller burns its deadline and retries an
	// operation that already happened — the asymmetric-partition case
	// idempotency tokens exist for.
	RPCTimeout
	// LeaderCrash SIGKILLs whichever coordinator replica holds the
	// lease when the window opens; the replica restarts (log intact)
	// when the window closes. Node targeting is ignored — the fault
	// follows the lease, not a fixed member.
	LeaderCrash
	// LeaderPartition cuts the lease holder off from its replica peers
	// for the window. Its node plane stays reachable — it can still
	// serve — but it cannot commit, so the lease lapses and the
	// standbys elect around it. Node targeting is ignored.
	LeaderPartition
	// DuelingLeader is LeaderPartition plus a pinned lease: the
	// partitioned leader refuses to step down (modeling a long GC pause
	// or a wedged clock) and keeps driving node RPCs under its stale
	// term until epoch fencing rejects them and forces the demotion.
	// Node targeting is ignored.
	DuelingLeader
)

var nodeKindNames = fsm.NewNames[NodeKind]("node-kind", "faults: unknown node kind",
	"heartbeat-loss", "partition", "slow-node", "rpc-drop", "rpc-duplicate",
	"rpc-delay", "rpc-timeout", "leader-crash", "leader-partition", "dueling-leader")

// String names the node fault kind for logs and reports.
func (k NodeKind) String() string { return nodeKindNames.String(k) }

// NodeSchedule describes when one node fault fires and how long it
// lasts. Exactly one trigger must be set: At fires once when the round
// counter reaches At (1-based); Prob fires per round with the given
// probability from the plan's seeded RNG (and re-arms after the window
// closes).
type NodeSchedule struct {
	// Kind selects the fault behavior.
	Kind NodeKind `json:"kind"`

	// Node is the target node ID; empty targets every node.
	Node string `json:"node,omitempty"`

	// At, when > 0, triggers the fault at heartbeat round At.
	At int64 `json:"at,omitempty"`

	// Prob, when > 0, triggers the fault on any round with this
	// probability. Must be in (0, 1].
	Prob float64 `json:"prob,omitempty"`

	// Rounds bounds how many heartbeat rounds the fault covers once
	// fired. 0 takes the kind's default: 2 for HeartbeatLoss, 4 for
	// Partition and SlowNode.
	Rounds int64 `json:"rounds,omitempty"`

	// Delay is the added response latency for SlowNode. 0 defaults to
	// 400ms — above the default heartbeat deadline, so a slow node
	// misses heartbeats. Ignored by other kinds.
	Delay time.Duration `json:"delay,omitempty"`
}

func (s NodeSchedule) withDefaults() NodeSchedule {
	if s.Rounds == 0 {
		switch s.Kind {
		case HeartbeatLoss, RPCDrop, RPCDuplicate, RPCTimeout:
			s.Rounds = 2
		case Partition, SlowNode, RPCDelay, LeaderCrash, LeaderPartition, DuelingLeader:
			s.Rounds = 4
		}
	}
	if s.Delay == 0 {
		s.Delay = 400 * time.Millisecond
	}
	return s
}

func (s NodeSchedule) validate(i int) error {
	if s.Kind > DuelingLeader {
		return fmt.Errorf("faults: node schedule %d: unknown kind %d", i, s.Kind)
	}
	if (s.At > 0) == (s.Prob > 0) {
		return fmt.Errorf("faults: node schedule %d (%s): exactly one of At and Prob must be set", i, s.Kind)
	}
	if s.Kind >= LeaderCrash && s.Node != "" {
		return fmt.Errorf("faults: node schedule %d (%s): leader faults follow the lease holder and take no node target", i, s.Kind)
	}
	if s.At < 0 {
		return fmt.Errorf("faults: node schedule %d (%s): negative At %d", i, s.Kind, s.At)
	}
	if s.Prob < 0 || s.Prob > 1 {
		return fmt.Errorf("faults: node schedule %d (%s): Prob %v outside (0, 1]", i, s.Kind, s.Prob)
	}
	if s.Rounds < 0 {
		return fmt.Errorf("faults: node schedule %d (%s): negative Rounds %d", i, s.Kind, s.Rounds)
	}
	if s.Delay < 0 {
		return fmt.Errorf("faults: node schedule %d (%s): negative Delay %v", i, s.Kind, s.Delay)
	}
	return nil
}

// NodePlan parameterizes a NodeFaults evaluator.
type NodePlan struct {
	// Seed drives the probability triggers and nothing else; two plans
	// with equal Seed and Schedules fire identically.
	Seed uint64 `json:"seed"`

	// Schedules lists the node faults to inject. Empty is valid (no
	// faults ever fire).
	Schedules []NodeSchedule `json:"schedules"`
}

// Validate reports a descriptive error for an unusable plan.
func (p NodePlan) Validate() error {
	for i, s := range p.Schedules {
		if err := s.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// nodeSchedState is a NodeSchedule plus its firing state.
type nodeSchedState struct {
	NodeSchedule
	fired bool  // At-trigger consumed, or window open
	left  int64 // remaining rounds in the open window
}

// NodeFaults evaluates a NodePlan one heartbeat round at a time. It is
// not safe for concurrent use: the coordinator calls BeginRound under
// its lock, and the predicates (DropHeartbeat, Partitioned, Delay) read
// the state that round established. Like the device injector, the RNG
// stream is a pure function of the round number — every schedule draws
// on every round regardless of its state — so the fault sequence is a
// deterministic function of (seed, schedules).
type NodeFaults struct {
	rng    *simclock.RNG
	scheds []nodeSchedState
	round  int64
}

// NewNodeFaults builds the evaluator for a plan.
func NewNodeFaults(p NodePlan) (*NodeFaults, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &NodeFaults{rng: simclock.NewRNG(p.Seed)}
	for _, s := range p.Schedules {
		f.scheds = append(f.scheds, nodeSchedState{NodeSchedule: s.withDefaults()})
	}
	return f, nil
}

// BeginRound advances to the next heartbeat round: open windows are
// consumed, then triggers for the new round fire. The predicates below
// answer for the round this call opened.
func (f *NodeFaults) BeginRound() {
	f.round++
	for k := range f.scheds {
		s := &f.scheds[k]
		if s.fired && s.left > 0 {
			s.left--
			if s.left == 0 {
				s.fired = s.At > 0 // Prob schedules re-arm
			}
		}
		switch {
		case s.At > 0 && !s.fired && s.left == 0 && f.round >= s.At:
			s.fired = true
			s.left = s.Rounds
		case s.Prob > 0:
			if f.rng.Float64() < s.Prob && s.left == 0 {
				s.fired = true
				s.left = s.Rounds
			}
		}
	}
}

// active reports whether a schedule of the given kind covers the node
// this round.
func (f *NodeFaults) active(kind NodeKind, node string) *nodeSchedState {
	for k := range f.scheds {
		s := &f.scheds[k]
		if s.Kind == kind && s.fired && s.left > 0 && (s.Node == "" || s.Node == node) {
			return s
		}
	}
	return nil
}

// DropHeartbeat reports whether the node's heartbeat is lost this
// round — either a HeartbeatLoss window or a Partition covers it.
func (f *NodeFaults) DropHeartbeat(node string) bool {
	return f.active(HeartbeatLoss, node) != nil || f.active(Partition, node) != nil
}

// Partitioned reports whether the node is unreachable this round.
func (f *NodeFaults) Partitioned(node string) bool {
	return f.active(Partition, node) != nil
}

// Delay returns the added response latency for the node this round (0
// when no SlowNode window covers it).
func (f *NodeFaults) Delay(node string) time.Duration {
	if s := f.active(SlowNode, node); s != nil {
		return s.Delay
	}
	return 0
}

// RPCDropped reports whether submit requests to the node are lost
// before delivery this round.
func (f *NodeFaults) RPCDropped(node string) bool {
	return f.active(RPCDrop, node) != nil
}

// RPCDuplicated reports whether submit requests to the node are
// delivered twice this round.
func (f *NodeFaults) RPCDuplicated(node string) bool {
	return f.active(RPCDuplicate, node) != nil
}

// RPCDelayed returns the added submit-response latency for the node
// this round (0 when no RPCDelay window covers it).
func (f *NodeFaults) RPCDelayed(node string) time.Duration {
	if s := f.active(RPCDelay, node); s != nil {
		return s.Delay
	}
	return 0
}

// RPCTimedOut reports whether submit responses from the node are lost
// after execution this round.
func (f *NodeFaults) RPCTimedOut(node string) bool {
	return f.active(RPCTimeout, node) != nil
}

// LeaderCrashed reports whether a leader-crash window covers this
// round. Leader faults follow the lease holder, so they carry no node
// target.
func (f *NodeFaults) LeaderCrashed() bool {
	return f.active(LeaderCrash, "") != nil
}

// LeaderPartitioned reports whether the lease holder is cut off from
// its replica peers this round — either a LeaderPartition window or a
// DuelingLeader window covers it.
func (f *NodeFaults) LeaderPartitioned() bool {
	return f.active(LeaderPartition, "") != nil || f.active(DuelingLeader, "") != nil
}

// LeaderDueling reports whether the partitioned leader's lease is
// pinned this round (it will not step down until fenced).
func (f *NodeFaults) LeaderDueling() bool {
	return f.active(DuelingLeader, "") != nil
}
