package cluster

import (
	"fmt"
	"time"

	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
)

// Transport carries the coordinator's traffic to nodes. The
// implementations below call the node directly; the RPC client
// (rpc.go) speaks the node plane's wire form over a memory or HTTP
// carrier. The interface lets the harness interpose deterministic
// network faults (drop, delay, partition) without the coordinator
// knowing.
type Transport interface {
	// Heartbeat probes the node, returning the round-trip time the
	// coordinator should account. An error is a lost heartbeat.
	Heartbeat(n *Node) (time.Duration, error)

	// Submit delivers a batch to the node. A transport error fails the
	// whole sub-batch (the per-request results are then synthesized by
	// the coordinator).
	Submit(n *Node, reqs []fleet.Request) ([]fleet.Result, error)
}

// DeviceMover is the optional transport surface for migrating device
// state between nodes that do not share an address space. The RPC
// client implements it (over either carrier) and so lets the
// coordinator fail devices over between real processes; when both
// endpoints have local managers the coordinator moves
// fleet.PortableDevice handles directly and never needs it.
type DeviceMover interface {
	// DetachDevice exports a device's wire state off the node.
	DetachDevice(n *Node, device string) (*fleet.DeviceState, error)

	// AttachDevice imports a device's wire state into the node.
	AttachDevice(n *Node, st *fleet.DeviceState) error
}

// directRTT is the in-process transport's constant round-trip time:
// comfortably under the default heartbeat deadline, and fixed so
// heartbeat accounting is deterministic.
const directRTT = time.Millisecond

// DirectTransport is the fault-free in-process transport.
type DirectTransport struct{}

// Heartbeat implements Transport.
func (DirectTransport) Heartbeat(n *Node) (time.Duration, error) {
	if _, err := n.Heartbeat(); err != nil {
		return 0, err
	}
	return directRTT, nil
}

// Submit implements Transport.
func (DirectTransport) Submit(n *Node, reqs []fleet.Request) ([]fleet.Result, error) {
	return n.Submit(reqs)
}

// FaultTransport interposes a seeded node-fault plan on another
// transport: heartbeat-loss windows eat heartbeats, partitions
// additionally fail submits, and slow-node windows inflate the
// heartbeat round-trip (past the deadline, with the default delay).
// The coordinator advances the plan one round per Tick under its
// lock; the fault decisions are therefore a pure function of (seed,
// round) regardless of how the fan-out goroutines interleave.
type FaultTransport struct {
	Base   Transport
	Faults *faults.NodeFaults
}

// NewFaultTransport wires a node-fault plan over the direct transport.
func NewFaultTransport(plan faults.NodePlan) (*FaultTransport, error) {
	nf, err := faults.NewNodeFaults(plan)
	if err != nil {
		return nil, err
	}
	return &FaultTransport{Base: DirectTransport{}, Faults: nf}, nil
}

// BeginRound advances the fault plan by one round. The coordinator
// calls it (via a type assertion) at the top of every Tick, under its
// lock, before any heartbeat fan-out reads the predicates.
func (t *FaultTransport) BeginRound() { t.Faults.BeginRound() }

// Heartbeat implements Transport.
func (t *FaultTransport) Heartbeat(n *Node) (time.Duration, error) {
	if t.Faults.DropHeartbeat(n.ID()) {
		return 0, fmt.Errorf("node %q: heartbeat lost: %w", n.ID(), ErrNodeUnreachable)
	}
	rtt, err := t.Base.Heartbeat(n)
	if err != nil {
		return 0, err
	}
	return rtt + t.Faults.Delay(n.ID()), nil
}

// Submit implements Transport.
func (t *FaultTransport) Submit(n *Node, reqs []fleet.Request) ([]fleet.Result, error) {
	if t.Faults.Partitioned(n.ID()) {
		return nil, fmt.Errorf("node %q: %w", n.ID(), ErrNodeUnreachable)
	}
	return t.Base.Submit(n, reqs)
}
