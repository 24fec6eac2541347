// Package cluster is the fleet-of-fleets layer: several ssdcheckd-style
// nodes — each a fleet.Manager with its own devices, shards, and
// metrics registry — behind one coordinator that places devices with a
// seeded consistent-hash ring, fans batched submits out to the owning
// nodes, tracks node health from heartbeats, and rebalances devices on
// join, leave, and failover.
//
// The layer reuses the repository's architecture one level up:
//
//   - Placement is a deterministic seeded ring (ring.go), so the same
//     seed and membership sequence always produce the same device→node
//     map.
//   - Node health is the fleet's device state machine verbatim —
//     healthy ⇄ degraded → quarantined ⇄ recovering — driven by missed
//     heartbeats instead of request outcomes, reusing fleet.Health.
//   - Observability merges per-node obs registries into one exposition
//     (obs.WritePrometheusMerged) and per-node fleet metrics into
//     cluster aggregates, the same histogram-bucket merge the fleet
//     uses across devices.
//
// Failover model: devices are the physical plane. A node that stops
// serving (killed, partitioned) takes its compute out of the cluster,
// but its devices' state — simulator, predictor, clocks, counters —
// survives, the way drives behind a dead head node survive in a shared
// enclosure. On failover the coordinator salvages that state through
// fleet.Detach/Attach, which is why a fanned-out run is byte-identical
// to an equivalent single-fleet run: per-device results depend only on
// the device's seed, clock, and request stream, none of which care
// which node hosts the device.
//
// Determinism: every placement and health decision happens under the
// coordinator's lock in explicit calls (Tick, Join, Kill, Drain, ...),
// heartbeats fan out in parallel but are resolved in membership order,
// and node faults fire from a seeded round-based plan
// (faults.NodePlan). The seq-stamped placement and transition logs are
// therefore byte-identical across runs and GOMAXPROCS settings.
package cluster

import (
	"errors"
	"time"

	"ssdcheck/internal/fleet"
)

// Typed cluster errors, errors.Is-compatible.
var (
	// ErrNodeDown rejects work routed to a stopped node.
	ErrNodeDown = errors.New("cluster: node down")
	// ErrNodeUnreachable marks a transport-level failure (partition).
	ErrNodeUnreachable = errors.New("cluster: node unreachable")
	// ErrUnknownNode rejects operations addressed to an ID the cluster
	// does not know.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNoNodes rejects placement when no node is in service.
	ErrNoNodes = errors.New("cluster: no nodes in service")
	// ErrCoordinatorClosed rejects calls after Close.
	ErrCoordinatorClosed = errors.New("cluster: coordinator closed")
	// ErrBreakerOpen fast-fails work addressed to a node whose circuit
	// breaker is open: the node has burned through its failure budget
	// and the coordinator refuses to pay another timeout until the
	// cooldown elapses.
	ErrBreakerOpen = errors.New("cluster: circuit breaker open")
)

// Policy tunes the coordinator: the heartbeat cadence on the cluster's
// virtual clock, the node health state machine thresholds, and the
// placement ring. The zero value takes the defaults.
type Policy struct {
	// HeartbeatInterval is the virtual time between heartbeat rounds
	// (each Tick advances the cluster clock by one interval). 0
	// defaults to 1s.
	HeartbeatInterval time.Duration

	// HeartbeatDeadline is the round-trip budget; a slower (or lost)
	// heartbeat counts as a miss. 0 defaults to 250ms.
	HeartbeatDeadline time.Duration

	// DegradeAfterMisses moves a healthy node to degraded after this
	// many consecutive missed heartbeats. 0 defaults to 2.
	DegradeAfterMisses int

	// QuarantineAfterMisses moves a degraded node to quarantined —
	// off the ring, devices evacuated — after this many consecutive
	// misses. 0 defaults to 4.
	QuarantineAfterMisses int

	// RejoinAfterBeats is how many consecutive on-deadline heartbeats a
	// quarantined node must answer (via recovering) before it rejoins
	// the ring and takes devices back. 0 defaults to 2.
	RejoinAfterBeats int

	// VirtualNodes is the ring's virtual-node count per member. 0
	// defaults to 128.
	VirtualNodes int

	// BreakerFailures is how many consecutive failed submit RPCs open
	// a node's circuit breaker (submits then fast-fail with
	// ErrBreakerOpen instead of burning an RPC deadline each). 0
	// defaults to 3; negative disables the breaker.
	BreakerFailures int

	// BreakerCooldown is how long an open breaker stays open on the
	// cluster's virtual clock — which advances only on Tick, so the
	// cooldown is effectively measured in heartbeat rounds. After it
	// elapses the next submit half-opens the breaker and rides as the
	// probe. 0 defaults to 2×HeartbeatInterval.
	BreakerCooldown time.Duration

	// Seed drives the placement ring's hash positions. Two clusters
	// with equal Seed, membership sequence, and device set place
	// identically.
	Seed uint64
}

func (p Policy) withDefaults() Policy {
	if p.HeartbeatInterval == 0 {
		p.HeartbeatInterval = time.Second
	}
	if p.HeartbeatDeadline == 0 {
		p.HeartbeatDeadline = 250 * time.Millisecond
	}
	if p.DegradeAfterMisses == 0 {
		p.DegradeAfterMisses = 2
	}
	if p.QuarantineAfterMisses == 0 {
		p.QuarantineAfterMisses = 4
	}
	if p.RejoinAfterBeats == 0 {
		p.RejoinAfterBeats = 2
	}
	if p.VirtualNodes == 0 {
		p.VirtualNodes = 128
	}
	if p.BreakerFailures == 0 {
		p.BreakerFailures = 3
	}
	if p.BreakerFailures < 0 {
		p.BreakerFailures = 0 // disabled
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = 2 * p.HeartbeatInterval
	}
	return p
}

// Validate reports a descriptive error for an unusable policy.
func (p Policy) Validate() error {
	if p.HeartbeatInterval < 0 || p.HeartbeatDeadline < 0 {
		return errors.New("cluster: negative heartbeat timing")
	}
	if p.DegradeAfterMisses < 0 || p.QuarantineAfterMisses < 0 || p.RejoinAfterBeats < 0 || p.VirtualNodes < 0 {
		return errors.New("cluster: negative policy threshold")
	}
	if p.BreakerCooldown < 0 {
		return errors.New("cluster: negative breaker cooldown")
	}
	d, q := p.withDefaults().DegradeAfterMisses, p.withDefaults().QuarantineAfterMisses
	if q < d {
		return errors.New("cluster: quarantine threshold under degrade threshold")
	}
	return nil
}

// MemberTransition is one edge taken in one of a member's state
// machines: its node health or its circuit breaker. Seq is the
// coordinator's global event sequence, shared with the placement log,
// so health edges, breaker flips and device moves are totally ordered.
type MemberTransition[S any] struct {
	Seq   int64  `json:"seq"`
	Round int64  `json:"round"`
	Node  string `json:"node"`
	From  S      `json:"from"`
	To    S      `json:"to"`
	Cause string `json:"cause"`
}

// NodeTransition is one edge taken in a node's health state machine.
type NodeTransition = MemberTransition[fleet.Health]

// PlacementEntry is one device move in the placement log. From is
// empty for the initial (bootstrap) placement.
type PlacementEntry struct {
	Seq    int64  `json:"seq"`
	Round  int64  `json:"round"`
	Device string `json:"device"`
	From   string `json:"from,omitempty"`
	To     string `json:"to"`
	Cause  string `json:"cause"`
}

// NodeStatus is one member's point-in-time view.
type NodeStatus struct {
	ID     string       `json:"id"`
	Health fleet.Health `json:"health"`
	// InRing reports whether the node currently owns placement arcs.
	InRing bool `json:"in_ring"`
	// Devices is the number of devices placed on the node.
	Devices int `json:"devices"`
	// Misses and Beats are the consecutive missed/answered heartbeat
	// streaks driving the state machine.
	Misses int `json:"misses"`
	Beats  int `json:"beats"`
}
