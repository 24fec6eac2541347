package cluster

import "errors"

// Epoch fencing: every node-plane RPC carries the issuing
// coordinator's (term, leader) pair. A node remembers the highest term
// it has ever seen and rejects anything older with ErrStaleTerm — an
// authoritative, non-retryable answer — so two coordinators sharing a
// log lineage can never both drive the fleet: the moment any node
// hears from the new leader, the old one's writes bounce off it.
//
// The RPC client (rpc.go) writes its token into every request body;
// the replication layer sets it when a replica wins an election. Term
// 0 is the unfenced legacy token: a standalone (non-replicated)
// coordinator never fences, and nodes accept its RPCs regardless of
// the fenced term. Fencing is a property of the replicated control
// plane, not of single-coordinator deployments.

// FencingToken identifies the coordination epoch a node-plane RPC was
// issued under.
type FencingToken struct {
	// Term is the leadership epoch. 0 means unfenced (legacy
	// single-coordinator traffic, always accepted).
	Term int64 `json:"term,omitempty"`
	// Leader is the coordinator replica that holds the term.
	Leader string `json:"leader,omitempty"`
}

// Replication and leadership errors, errors.Is-compatible.
var (
	// ErrStaleTerm rejects a node-plane RPC whose fencing token is
	// older than the highest term the node has witnessed. It is
	// authoritative: the issuing coordinator has been superseded and
	// must demote, not retry.
	ErrStaleTerm = errors.New("cluster: stale term fenced")
	// ErrNotLeader rejects a proposal from a replica that is not the
	// group's leader.
	ErrNotLeader = errors.New("cluster: not the leader")
	// ErrNoQuorum fails a proposal that could not reach a quorum of
	// replicas; nothing was applied.
	ErrNoQuorum = errors.New("cluster: no quorum")
	// ErrNoLeader rejects group work while no replica holds the lease
	// (mid-election, or quorum lost).
	ErrNoLeader = errors.New("cluster: no leader")
)
