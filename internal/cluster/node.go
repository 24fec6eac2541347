package cluster

import (
	"fmt"
	"sync"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// Node is one cluster member: a fleet.Manager plus an identity and a
// serving switch. In the in-process harness nodes are goroutine-hosted
// manager instances; the coordinator talks to them only through the
// RPC client, whose memory carrier hands the same bytes its HTTP
// carrier sends to remote ssdcheckd processes to the node's NodeAPI.
//
// Stop models the node's process going away: Submit and Heartbeat
// fail, but the manager — the device state — survives, playing the
// role of the shared enclosure the devices physically live in. The
// coordinator reaches around a stopped node's front door (Detach on
// its manager) to salvage devices during failover.
type Node struct {
	id   string
	addr string // base URL for remote nodes ("http://host:port"); "" in-process
	reg  *obs.Registry
	rec  obs.Recorder // the fleet's recorder; tracer discovery for merged traces

	apiOnce sync.Once
	api     *NodeAPI

	mu      sync.RWMutex
	m       *fleet.Manager
	stopped bool
}

// NewNode builds a member from a fleet config. Devices may be empty
// (AllowEmpty is forced on): harness nodes start bare and receive
// their devices from the coordinator's bootstrap placement. A nil
// cfg.Registry gets a private one — per-node registries are what the
// cluster's merged exposition is built from.
func NewNode(id string, cfg fleet.Config) (*Node, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: node with empty ID")
	}
	cfg.AllowEmpty = true
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	m, err := fleet.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %q: %w", id, err)
	}
	return &Node{id: id, reg: cfg.Registry, rec: cfg.Recorder, m: m}, nil
}

// NewNodeFromManager wraps an existing fleet manager as a cluster
// member — the ssdcheckd daemon uses it to put its already-running
// fleet behind the node API. The manager's lifecycle stays with the
// caller. rec is the manager's recorder (nil is fine); passing it
// lets the cluster's merged trace view find the node's tracer.
func NewNodeFromManager(id string, m *fleet.Manager, rec obs.Recorder) (*Node, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: node with empty ID")
	}
	if m == nil {
		return nil, fmt.Errorf("cluster: node %q: nil manager", id)
	}
	return &Node{id: id, reg: m.Registry(), rec: rec, m: m}, nil
}

// NewRemoteNode names a cluster member living in another process,
// reachable at the given base URL (e.g. "http://127.0.0.1:8801").
// A remote node has no local manager: the coordinator talks to it
// only over the HTTP carrier (the memory carrier answers for it as
// down), and device migration runs over attach and detach RPCs
// instead of the in-process Detach/Attach path.
func NewRemoteNode(id, addr string) (*Node, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: node with empty ID")
	}
	if addr == "" {
		return nil, fmt.Errorf("cluster: remote node %q with empty address", id)
	}
	return &Node{id: id, addr: addr}, nil
}

// Addr returns the node's base URL, or "" for in-process nodes.
func (n *Node) Addr() string { return n.addr }

// Tracer returns the span tracer behind the node's recorder, or nil
// when the node records no traces (no recorder, a bare registry
// recorder, or a remote node).
func (n *Node) Tracer() *obs.Tracer {
	switch r := n.rec.(type) {
	case *obs.Tracer:
		return r
	case obs.Observer:
		return r.Tr
	}
	return nil
}

// API returns the node's RPC surface, built on first use. A node has
// exactly one, as a real process does: every coordinator that reaches
// the node in process — a recovered one, each replica of a group —
// meets the same dedupe cache and fencing state, and ssdcheckd mounts
// the same API on HTTP.
func (n *Node) API() *NodeAPI {
	n.apiOnce.Do(func() { n.api = NewNodeAPI(n, 0) })
	return n.api
}

// ID returns the node's cluster-unique identifier.
func (n *Node) ID() string { return n.id }

// Registry returns the node's metrics registry.
func (n *Node) Registry() *obs.Registry { return n.reg }

// Manager returns the node's fleet manager — the device state plane,
// reachable even while the node is stopped.
func (n *Node) Manager() *fleet.Manager {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.m
}

// Stop takes the node out of service: Submit and Heartbeat fail until
// Resume. Idempotent.
func (n *Node) Stop() {
	n.mu.Lock()
	n.stopped = true
	n.mu.Unlock()
}

// Resume puts a stopped node back in service. Idempotent.
func (n *Node) Resume() {
	n.mu.Lock()
	n.stopped = false
	n.mu.Unlock()
}

// Submit serves a batch against the node's fleet.
func (n *Node) Submit(reqs []fleet.Request) ([]fleet.Result, error) {
	n.mu.RLock()
	stopped, m := n.stopped, n.m
	n.mu.RUnlock()
	if stopped {
		return nil, fmt.Errorf("node %q: %w", n.id, ErrNodeDown)
	}
	return m.SubmitBatch(reqs)
}

// Heartbeat answers a liveness probe with the node's device count.
func (n *Node) Heartbeat() (int, error) {
	n.mu.RLock()
	stopped, m := n.stopped, n.m
	n.mu.RUnlock()
	if stopped {
		return 0, fmt.Errorf("node %q: %w", n.id, ErrNodeDown)
	}
	return len(m.DeviceIDs()), nil
}

// Close shuts the node's manager down.
func (n *Node) Close() {
	n.mu.Lock()
	n.stopped = true
	m := n.m
	n.mu.Unlock()
	m.Close()
}
