// Command ssdcheck-cluster is the fleet-of-fleets daemon: several
// ssdcheckd-style nodes hosted in one process behind a coordinator
// that places devices on a consistent-hash ring, drives node health
// from heartbeat rounds, fails devices over when a node dies, and
// merges every node's metrics into one observability surface (see
// internal/cluster).
//
// Endpoints, served alike in every mode except where marked: "not
// -peers" routes change membership on the coordinator directly, and a
// replicated group takes membership only through its log; "-peers
// only" routes act on the replica group.
//
//	POST /v1/submit                          fan-out batched submit, node-attributed results
//	GET  /v1/cluster/nodes                   members: health, ring arcs, device counts
//	GET  /v1/cluster/nodes/{id}              one member: status plus its fleet metrics
//	POST /v1/cluster/nodes/{id}/kill         not -peers: stop the node's serving path (devices survive)
//	POST /v1/cluster/nodes/{id}/restore      not -peers: bring a killed node back (rejoins via heartbeats)
//	POST /v1/cluster/nodes/{id}/drain        not -peers: graceful leave: migrate devices, drop member
//	POST /v1/cluster/nodes/{id}/join         not -peers: add a fresh empty node and rebalance onto it
//	GET  /v1/cluster/placement               device→node map plus the seq-stamped placement log
//	GET  /v1/cluster/transitions             node health-transition log
//	GET  /v1/cluster/breakers                per-node circuit-breaker states and transition log
//	GET  /v1/cluster/metrics                 merged cluster aggregate (JSON)
//	GET  /v1/traces                          merged cross-node traces, node-stamped (?device=, ?node=, ?format=chrome)
//	POST /v1/cluster/tick                    run one heartbeat round now
//	GET  /v1/coordinator/status              -peers only: term, leader, quorum, per-replica log state
//	POST /v1/coordinator/replicas/{id}/{crash,restart,partition,heal}  -peers only: coordinator chaos
//	GET  /metrics                            merged Prometheus exposition (node-labeled; -peers adds the group's series)
//	GET  /v1/version                         build identity, role and uptime
//	GET  /debug/pprof/                       runtime profiling
//	GET  /healthz                            liveness, quorum-aware, with term, leader and quorum size
//
// In -peers mode the coordinator routes answer from the current
// leader, and 503 while the group elects one.
//
// The heartbeat rounds that drive failure detection run on a
// wall-clock ticker (-tick-interval); set it to 0 for a fully manual
// cluster driven by POST /v1/cluster/tick — the mode the tests use,
// where the round sequence (and so the placement and transition logs)
// is exactly reproducible.
//
// Usage:
//
//	ssdcheck-cluster -addr :8090 -nodes 3 -devices 12 -fastdiag
//	ssdcheck-cluster -nodes 5 -devices 40 -tick-interval 500ms
//
// With -join the daemon runs in networked mode: instead of hosting
// nodes in-process, it drives real ssdcheckd processes over their
// /v1/node/* API through an HTTP transport with per-attempt
// deadlines, bounded retries, idempotency tokens and per-node circuit
// breakers. -wal-dir makes that coordinator crash-recoverable: every
// placement, health, and breaker decision is fsynced to a one-replica
// log (log.jsonl, meta.json, snapshot.json, compacted every 256
// decisions), and a restarted coordinator restores the snapshot,
// replays the entries after it and resumes where it stopped, its
// remote members resolving back from their logged addresses. -wal-dir
// is accepted only with -join or -peers: hosted nodes die with the
// process, so a hosted cluster's log could never be replayed.
//
//	ssdcheckd -addr :8801 -node-id node-a -devices 0 ... &
//	ssdcheckd -addr :8802 -node-id node-b -devices 0 ... &
//	ssdcheck-cluster -join node-a=http://127.0.0.1:8801,node-b=http://127.0.0.1:8802 \
//	    -devices 8 -fastdiag -wal-dir /var/lib/ssdcheck/coordinator
//
// With -peers N the daemon hosts a replicated coordinator group: N
// coordinator replicas share a quorum-acknowledged placement log,
// leadership is a tick-clock lease (a leader abdicates after 2 rounds
// without a quorum; followers elect after 3 silent rounds), failover
// is a deterministic election
// (longest-log, lowest-ID tie-break), and a superseded leader is
// fenced off the node plane by term. -wal-dir makes every replica's
// log durable under <dir>/<replica-id>/ in the same format; the
// directory must start empty.
//
//	ssdcheck-cluster -peers 3 -nodes 3 -devices 12 -fastdiag -tick-interval 500ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

func main() { os.Exit(runMain(os.Args[1:], os.Stderr)) }

// runMain parses the command line and runs the selected mode,
// returning the process exit code: 2 for a usage error, 1 for a
// runtime failure.
func runMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssdcheck-cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8090", "listen address")
	nodes := fs.Int("nodes", 3, "cluster member count")
	devices := fs.Int("devices", 12, "total simulated devices, placed across the nodes")
	presets := fs.String("presets", "A,B,C,D,E,F,G,H", "comma-separated preset cycle")
	shards := fs.Int("shards", 0, "worker shards per node (0 = one per core)")
	seed := fs.Uint64("seed", 42, "base seed; device seeds and ring placement derive from it")
	fastDiag := fs.Bool("fastdiag", false, "use reduced-strength startup diagnosis probes")
	tickInterval := fs.Duration("tick-interval", time.Second, "wall-clock heartbeat round period (0 = manual via POST /v1/cluster/tick)")
	walDir := fs.String("wal-dir", "", "with -join or -peers: coordinator log directory (log.jsonl, meta.json, snapshot.json), replayed on restart")
	peers := fs.Int("peers", 0, "replicated mode: coordinator replica count (>=3, odd); placements commit only on quorum ack and leadership fails over on lease expiry")
	joinSpec := fs.String("join", "", "networked mode: remote members as id=baseURL[,id=baseURL...], driven over their /v1/node/* API")
	rpcDeadline := fs.Duration("rpc-deadline", 0, "per-attempt RPC deadline in networked mode (0 = default)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of requests each hosted node traces, 0..1 (0 = off)")
	traceBuffer := fs.Int("trace-buffer", 256, "retained traces per device per node")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var usage string
	switch {
	case fs.NArg() > 0:
		usage = "unexpected arguments: " + strings.Join(fs.Args(), " ")
	case *joinSpec != "" && *peers > 0:
		usage = "-join and -peers are mutually exclusive"
	case *tickInterval < 0:
		usage = fmt.Sprintf("-tick-interval %v is negative", *tickInterval)
	case *walDir != "" && *joinSpec == "" && *peers == 0:
		usage = "-wal-dir needs -join or -peers: hosted nodes die with the process, so their log could never be replayed"
	}
	if usage != "" {
		fmt.Fprintln(stderr, "ssdcheck-cluster:", usage)
		fs.Usage()
		return 2
	}

	var err error
	switch {
	case *joinSpec != "":
		err = runRemote(*addr, *joinSpec, *devices, *presets, *shards, *seed, *fastDiag, *tickInterval, *walDir, *rpcDeadline)
	case *peers > 0:
		err = runReplicated(*addr, *peers, *nodes, *devices, *presets, *shards, *seed, *fastDiag, *tickInterval, *walDir)
	default:
		err = run(*addr, *nodes, *devices, *presets, *shards, *seed, *fastDiag, *tickInterval, *traceSample, *traceBuffer)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ssdcheck-cluster:", err)
		return 1
	}
	return 0
}

// serve runs the HTTP front end and the optional wall-clock heartbeat
// ticker until SIGINT/SIGTERM, then closes what it served.
func serve(addr string, handler http.Handler, tick func() error, tickInterval time.Duration, closeAll func()) error {
	if err := daemon.Serve(context.Background(), addr, handler, tick, tickInterval); err != nil {
		return err
	}
	closeAll()
	log.Printf("cluster drained, bye")
	return nil
}

// nodeConfig is the fleet template every mode builds its nodes, or its
// bootstrap fleet, from.
func nodeConfig(shards int, fastDiag bool) fleet.Config {
	cfg := fleet.Config{Shards: shards}
	if fastDiag {
		cfg.Diagnosis = fleet.FastDiagnosis()
	}
	return cfg
}

func run(addr string, nodes, devices int, presets string, shards int, seed uint64, fastDiag bool, tickInterval time.Duration, traceSample float64, traceBuffer int) error {
	if nodes <= 0 {
		return fmt.Errorf("need at least one node (-nodes)")
	}
	if devices <= 0 {
		return fmt.Errorf("need at least one device (-devices)")
	}
	if traceSample < 0 || traceSample > 1 {
		return fmt.Errorf("-trace-sample %v outside [0,1]", traceSample)
	}

	nodeCfg := nodeConfig(shards, fastDiag)

	log.Printf("bootstrapping %d devices across %d nodes...", devices, nodes)
	start := time.Now()
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:       nodes,
		Devices:     fleet.PresetDevices(devices, daemon.Presets(presets), seed),
		Node:        nodeCfg,
		Policy:      cluster.Policy{Seed: seed},
		TraceSample: traceSample,
		TraceBuffer: traceBuffer,
	})
	if err != nil {
		return err
	}
	defer h.Close()
	for _, st := range h.Coordinator().Nodes() {
		log.Printf("  %s: %d devices", st.ID, st.Devices)
	}
	log.Printf("cluster up in %v", time.Since(start).Round(time.Millisecond))

	newMember := func(id, _ string) (*cluster.Node, error) { return cluster.NewNode(id, nodeCfg) }
	c := h.Coordinator()
	return serve(addr, newServer(c, newMember), c.Tick, tickInterval, h.Close)
}

// runReplicated hosts a lease-fenced coordinator replica group: every
// placement/health/adopt decision commits through a quorum-replicated
// log, leadership fails over deterministically when the leader's lease
// lapses, and a superseded leader is fenced off the node plane by term
// (see internal/cluster replica.go / group.go).
func runReplicated(addr string, peers, nodes, devices int, presets string, shards int, seed uint64, fastDiag bool, tickInterval time.Duration, dir string) error {
	if peers < 3 {
		return fmt.Errorf("-peers %d: a replicated coordinator needs at least 3 replicas", peers)
	}
	if peers%2 == 0 {
		return fmt.Errorf("-peers %d: use an odd replica count so elections cannot tie on quorum", peers)
	}
	if nodes <= 0 {
		return fmt.Errorf("need at least one node (-nodes)")
	}
	if devices <= 0 {
		return fmt.Errorf("need at least one device (-devices)")
	}

	nodeCfg := nodeConfig(shards, fastDiag)

	log.Printf("bootstrapping %d devices across %d nodes behind %d coordinator replicas...", devices, nodes, peers)
	start := time.Now()
	g, err := cluster.NewGroup(cluster.GroupConfig{
		Replicas: peers,
		Nodes:    nodes,
		Devices:  fleet.PresetDevices(devices, daemon.Presets(presets), seed),
		Node:     nodeCfg,
		Policy:   cluster.Policy{Seed: seed},
		Dir:      dir,
	})
	if err != nil {
		return err
	}
	defer g.Close()
	st := g.Status()
	log.Printf("replica group up in %v: leader %s at term %d, quorum %d of %d",
		time.Since(start).Round(time.Millisecond), st.Leader, st.Term, st.Quorum, len(st.Replicas))

	return serve(addr, newGroupServer(g), g.Tick, tickInterval, g.Close)
}

// runRemote drives real ssdcheckd processes over their /v1/node/*
// API: an HTTP transport with deadlines, retries, idempotency tokens
// and per-node circuit breakers, plus (with -wal-dir) a
// crash-recoverable coordinator — on restart its one-replica log
// replays and the remote members resolve back from their logged
// addresses.
func runRemote(addr, joinSpec string, devices int, presets string, shards int, seed uint64, fastDiag bool, tickInterval time.Duration, walDir string, rpcDeadline time.Duration) error {
	c, err := remoteCoordinator(joinSpec, devices, presets, shards, seed, fastDiag, walDir, rpcDeadline)
	if err != nil {
		return err
	}
	defer c.Close()
	newMember := func(id, addr string) (*cluster.Node, error) {
		if addr == "" {
			return nil, fmt.Errorf("networked join needs ?addr=baseURL")
		}
		return cluster.NewRemoteNode(id, addr)
	}
	return serve(addr, newServer(c, newMember), c.Tick, tickInterval, c.Close)
}

// remoteCoordinator builds runRemote's coordinator, recovered from
// walDir when one is given, with the -join members in its membership
// and the device set placed on them. A restarted coordinator joins
// only the members its log does not already hold, and diagnoses and
// adopts devices only when it has placed none. A -join member the log
// holds at a different address is refused: the log has no record that
// moves a member.
func remoteCoordinator(joinSpec string, devices int, presets string, shards int, seed uint64, fastDiag bool, walDir string, rpcDeadline time.Duration) (*cluster.Coordinator, error) {
	type memberSpec struct{ id, addr string }
	var members []memberSpec
	for _, part := range strings.Split(joinSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-join entry %q: want id=baseURL", part)
		}
		members = append(members, memberSpec{id: strings.TrimSpace(id), addr: strings.TrimSpace(url)})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("-join named no members")
	}

	reg := obs.NewRegistry()
	tr := cluster.NewHTTPTransport(cluster.RPCPolicy{Deadline: rpcDeadline}, seed, reg)
	pol := cluster.Policy{Seed: seed}

	c, err := cluster.OpenCoordinator(pol, tr, reg, walDir, nil)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*cluster.Coordinator, error) {
		c.Close()
		return nil, err
	}
	if got := len(c.Nodes()); got > 0 {
		log.Printf("recovered %d members and %d placements from %s", got, len(c.Placement()), walDir)
	}

	for _, ms := range members {
		if n := c.Node(ms.id); n != nil {
			if n.Addr() != ms.addr {
				return fail(fmt.Errorf("-join %s=%s: member %s is already at %s; a moved member cannot be re-addressed", ms.id, ms.addr, ms.id, n.Addr()))
			}
			continue // already in recovered membership
		}
		n, err := cluster.NewRemoteNode(ms.id, ms.addr)
		if err != nil {
			return fail(err)
		}
		if err := c.Join(n); err != nil {
			return fail(err)
		}
		log.Printf("joined %s at %s", ms.id, ms.addr)
	}

	// Bootstrap placement: diagnose the device set locally, then push
	// each device's state to its ring owner over attach RPCs. Skipped
	// when the (recovered) coordinator already placed devices.
	if devices > 0 && len(c.Placement()) == 0 {
		log.Printf("diagnosing %d devices for adoption...", devices)
		if err := c.Bootstrap(nodeConfig(shards, fastDiag), fleet.PresetDevices(devices, daemon.Presets(presets), seed)); err != nil {
			return fail(err)
		}
		for dev, node := range c.Placement() {
			log.Printf("  %s -> %s", dev, node)
		}
	}
	return c, nil
}
