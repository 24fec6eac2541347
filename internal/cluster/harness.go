package cluster

import (
	"fmt"

	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// HarnessConfig parameterizes an in-process multi-node cluster.
type HarnessConfig struct {
	// Nodes is the member count; nodes are named "node-0", "node-1", …
	// in join order. 0 defaults to 3.
	Nodes int

	// Devices is the cluster-wide device set. The harness diagnoses all
	// of them in one bootstrap fleet, then hands each to the node the
	// ring names — so device behavior is identical to a single-fleet
	// run with the same specs and seeds.
	Devices []fleet.DeviceSpec

	// Node is the per-node fleet configuration template (policies,
	// shards, queue depth). Devices and Registry are overridden: nodes
	// start empty with private registries.
	Node fleet.Config

	// Policy tunes the coordinator; the zero value takes the standard
	// defaults.
	Policy Policy

	// Faults, when non-nil, interposes a seeded node-fault plan between
	// the RPC client and the nodes: heartbeat loss, partitions, slow
	// nodes, and the RPC-layer kinds (drop, duplicate, delay, timeout).
	Faults *faults.NodePlan

	// RPC tunes the RPC client every harness reaches its nodes through
	// over the memory carrier — wire bytes into each node's NodeAPI,
	// with idempotency tokens, per-attempt deadlines and bounded
	// retries. nil, like the zero value, takes the defaults.
	RPC *RPCPolicy

	// WALDir, when non-empty, makes the coordinator durable: every
	// decision is fsynced to a one-replica log there, and
	// OpenCoordinator (or the harness's Recover) resumes from it after
	// a crash.
	WALDir string

	// TraceSample, when > 0, gives every node a deterministic request
	// tracer sampling that fraction, feeding the coordinator's merged
	// Traces view. TraceBuffer bounds the per-device rings (<= 0 takes
	// the tracer default).
	TraceSample float64
	TraceBuffer int
}

// Harness is a deterministic in-process cluster: goroutine-hosted
// nodes, the RPC client over the memory carrier (with the configured
// fault plan between it and the nodes), and a coordinator driven
// entirely by explicit Tick calls on the simulated clock. Two harness
// runs with the same config produce byte-identical placement and
// transition logs, at any GOMAXPROCS.
type Harness struct {
	cfg   HarnessConfig
	coord *Coordinator
	nodes []*Node
}

// newClient builds the harness's RPC client, reporting into the
// coordinator's registry.
func (cfg HarnessConfig) newClient(reg *obs.Registry) (*LoopbackTransport, error) {
	var pol RPCPolicy
	if cfg.RPC != nil {
		pol = *cfg.RPC
	}
	return NewLoopbackTransport(pol, cfg.Faults, cfg.Policy.Seed, reg)
}

// NewHarness stands the cluster up: build the nodes, join them (fixing
// ring arcs and join order), diagnose every device in a bootstrap
// fleet, and adopt the devices onto their ring owners in spec order.
// The bootstrap fleet is closed before returning; its registry is
// discarded (the per-node registries repopulate on attach).
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 3
	}
	if cfg.Nodes < 0 {
		return nil, fmt.Errorf("cluster: %d nodes", cfg.Nodes)
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("cluster: harness with no devices")
	}

	reg := obs.NewRegistry()
	tr, err := cfg.newClient(reg)
	if err != nil {
		return nil, err
	}

	// A fresh directory logs from the coordinator's first decision.
	coord, err := OpenCoordinator(cfg.Policy, tr, reg, cfg.WALDir, nil)
	if err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg, coord: coord}
	h.nodes, err = hostNodes(cfg.Nodes, cfg.Node, cfg.Policy.Seed, cfg.TraceSample, cfg.TraceBuffer)
	for i := 0; err == nil && i < len(h.nodes); i++ {
		err = coord.Join(h.nodes[i])
	}
	if err == nil {
		err = coord.Bootstrap(cfg.Node, cfg.Devices)
	}
	if err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// hostNodes builds n in-process members, "node-0" … "node-<n-1>", each
// on an empty fleet from tmpl with a private registry. With
// traceSample > 0 member i gets a deterministic request tracer seeded
// seed+i, sampling that fraction and keeping traceBuffer traces per
// device. On error the members already built are closed.
func hostNodes(n int, tmpl fleet.Config, seed uint64, traceSample float64, traceBuffer int) ([]*Node, error) {
	tmpl.Devices = nil
	var nodes []*Node
	for i := 0; i < n; i++ {
		tmpl.Registry = obs.NewRegistry()
		tmpl.Recorder = nil
		if traceSample > 0 {
			tmpl.Recorder = obs.Observer{Reg: tmpl.Registry, Tr: obs.NewTracer(seed+uint64(i), traceSample, traceBuffer)}
		}
		node, err := NewNode(fmt.Sprintf("node-%d", i), tmpl)
		if err != nil {
			for _, nd := range nodes {
				nd.Close()
			}
			return nil, err
		}
		nodes = append(nodes, node)
	}
	return nodes, nil
}

// resolveAmong maps logged members back to the live in-process handles
// in nodes by ID, and any other member through RemoteResolver.
func resolveAmong(nodes []*Node) NodeResolver {
	return func(id, addr string) (*Node, error) {
		for _, n := range nodes {
			if n.ID() == id {
				return n, nil
			}
		}
		return RemoteResolver(id, addr)
	}
}

// Coordinator returns the cluster control plane.
func (h *Harness) Coordinator() *Coordinator { return h.coord }

// Nodes returns the members in join order.
func (h *Harness) Nodes() []*Node { return append([]*Node(nil), h.nodes...) }

// Loopback returns the coordinator's RPC client, whose per-node stats
// account every submit, attach and detach the harness has issued.
func (h *Harness) Loopback() *LoopbackTransport { return h.coord.tr }

// CrashCoordinator kills the control plane mid-flight: the
// coordinator (and its log handle) closes abruptly, the nodes — the
// device state plane — keep running, exactly as when a real
// coordinator process dies. Requires a WALDir harness; recover
// with Recover.
func (h *Harness) CrashCoordinator() error {
	if h.cfg.WALDir == "" {
		return fmt.Errorf("cluster: harness has no log to recover from")
	}
	h.coord.Close()
	return nil
}

// Recover restores the log's snapshot and applies its entries into a
// fresh coordinator over a fresh RPC client, and resumes: same seq
// counter, same logs, same member state machines; the client's fault
// plan is advanced to the recovered round. The live node handles are
// resolved back into membership by ID.
func (h *Harness) Recover() error {
	if h.cfg.WALDir == "" {
		return fmt.Errorf("cluster: harness has no log to recover from")
	}
	reg := obs.NewRegistry()
	tr, err := h.cfg.newClient(reg)
	if err != nil {
		return err
	}
	coord, err := OpenCoordinator(h.cfg.Policy, tr, reg, h.cfg.WALDir, resolveAmong(h.nodes))
	if err != nil {
		return err
	}
	h.coord = coord
	return nil
}

// Close shuts the coordinator and every node down.
func (h *Harness) Close() {
	h.coord.Close()
	for _, n := range h.nodes {
		n.Close()
	}
}
