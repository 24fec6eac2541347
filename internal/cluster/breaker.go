package cluster

import (
	"ssdcheck/internal/fsm"
)

// BreakerState is a node's position in the coordinator's per-node
// circuit breaker: closed (traffic flows), open (submits fast-fail
// with ErrBreakerOpen until the cooldown elapses), half-open (one
// submit rides through as a probe; its outcome closes or re-opens the
// circuit).
//
// The breaker exists so a dead or partitioned node costs the cluster
// one RPC deadline, not one per request: after BreakerFailures
// consecutive failed submit RPCs the circuit opens and every further
// sub-batch addressed to the node is synthesized locally, instantly.
// The state machine is driven entirely under the coordinator's lock —
// decisions before the fan-out, outcomes fed back after it in
// membership order, cooldown measured on the Tick-driven virtual
// clock — so breaker behavior is deterministic and its transitions
// share the same seq-stamped log discipline as placement and health.
type BreakerState uint8

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails submits until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets one submit through as a probe.
	BreakerHalfOpen
)

var breakerNames = fsm.NewNames[BreakerState]("breaker", "cluster: unknown breaker state",
	"closed", "open", "half-open")

// String names the breaker state for logs and JSON.
func (s BreakerState) String() string { return breakerNames.String(s) }

// MarshalText renders the state name in JSON.
func (s BreakerState) MarshalText() ([]byte, error) { return breakerNames.Text(s) }

// UnmarshalText parses a state name.
func (s *BreakerState) UnmarshalText(b []byte) error { return breakerNames.Parse(s, string(b)) }

// BreakerTransition is one edge taken in a node's circuit breaker.
type BreakerTransition = MemberTransition[BreakerState]

// breakerTransitionLocked moves a node's breaker and logs the edge
// under the shared event sequence.
func (c *Coordinator) breakerTransitionLocked(mb *member, to BreakerState, cause string) {
	moveMemberLocked(c, mb, &mb.brk, to, &c.breakerlog, cause)
}

// breakerCooldown is how long an open breaker stays open on the
// cluster's virtual clock, which advances only on Tick: two heartbeat
// rounds. After it elapses the next submit half-opens the breaker and
// rides as the probe.
const breakerCooldown = 2 * heartbeatInterval

// breakerPeekLocked answers, without moving the breaker, whether the
// node would admit a sub-batch right now and whether admitting would
// flip the breaker (open → half-open). The submit path needs the
// answer before it proposes the admit record that moves the breaker.
// Disabled breakers always admit.
func (c *Coordinator) breakerPeekLocked(mb *member) (admit, flip bool) {
	if c.pol.BreakerFailures <= 0 {
		return true, false
	}
	if mb.brk == BreakerOpen {
		if c.now.Sub(mb.brkOpenedAt) >= breakerCooldown {
			return true, true
		}
		return false, false
	}
	return true, false
}

// breakerAdmitLocked applies an admit: an open breaker whose cooldown
// has elapsed half-opens, letting this sub-batch through as the probe.
func (c *Coordinator) breakerAdmitLocked(mb *member) {
	if _, flip := c.breakerPeekLocked(mb); flip {
		c.breakerTransitionLocked(mb, BreakerHalfOpen, "cooldown elapsed")
	}
}

// breakerOutcomeLocked feeds one submit RPC outcome into the node's
// breaker. Outcomes are applied after the fan-out, under the lock, in
// membership order, so the transition log is deterministic.
func (c *Coordinator) breakerOutcomeLocked(mb *member, failed bool) {
	if c.pol.BreakerFailures <= 0 {
		return
	}
	if failed {
		mb.brkFails++
		switch mb.brk {
		case BreakerClosed:
			if mb.brkFails >= c.pol.BreakerFailures {
				c.breakerTransitionLocked(mb, BreakerOpen, "consecutive submit failures")
				mb.brkOpenedAt = c.now
			}
		case BreakerHalfOpen:
			c.breakerTransitionLocked(mb, BreakerOpen, "probe failed")
			mb.brkOpenedAt = c.now
		}
		return
	}
	mb.brkFails = 0
	if mb.brk == BreakerHalfOpen {
		c.breakerTransitionLocked(mb, BreakerClosed, "probe succeeded")
	}
}

// BreakerLog returns the full breaker-transition log, oldest first.
func (c *Coordinator) BreakerLog() []BreakerTransition {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]BreakerTransition(nil), c.breakerlog...)
}

// Breakers returns every member's current breaker state, keyed by
// member ID.
func (c *Coordinator) Breakers() map[string]BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]BreakerState, len(c.members))
	for id, mb := range c.members {
		out[id] = mb.brk
	}
	return out
}
