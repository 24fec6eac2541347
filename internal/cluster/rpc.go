package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
)

// RPCPolicy bounds one coordinator→node RPC: a per-attempt deadline
// and a bounded retry schedule with exponential backoff and seeded
// jitter, reusing the fleet's RetryPolicy shape one layer up. The
// zero value takes the defaults.
type RPCPolicy struct {
	// Deadline is the per-attempt budget. Over the memory carrier it
	// is virtual time (a lost request or response costs exactly one
	// deadline, and a delay that pushes an answer past it loses the
	// answer); over the HTTP carrier it is the wall-clock request
	// timeout. 0 defaults to 200ms.
	Deadline time.Duration

	// Retry bounds the retries after a failed or timed-out attempt.
	// Heartbeats are never retried — a lost heartbeat is information
	// the health machine wants, not an error to paper over. The zero
	// value takes fleet.RetryPolicy's defaults.
	Retry fleet.RetryPolicy
}

// WithDefaults fills zero fields.
func (p RPCPolicy) WithDefaults() RPCPolicy {
	if p.Deadline == 0 {
		p.Deadline = 200 * time.Millisecond
	}
	p.Retry = p.Retry.WithDefaults()
	return p
}

// LoopbackTransport and HTTPTransport name the one node-plane RPC
// client by the carrier it was built over: NewLoopbackTransport
// reaches in-process nodes through their own NodeAPI on virtual time,
// NewHTTPTransport reaches ssdcheckd processes over /v1/node/*. Both
// send the same bytes — submit frames, JSON control bodies — and read
// the same answers through the same status mapping. A coordinator
// reaches its members through one of them and by no other path.
type (
	LoopbackTransport = rpcClient
	HTTPTransport     = rpcClient
)

// rpcClient is the coordinator's side of the node plane. It owns
// everything an RPC needs beyond moving bytes: the idempotency tokens
// (one per logical operation, reused across its retries, so a node's
// dedupe turns a retry after a lost response into a replay), the
// fencing token every RPC carries, per-attempt deadlines with bounded
// retries and seeded jitter, the mapping of a node's answer onto
// errors, and the per-node stats and metrics. The carrier moves a
// request body to a node route and returns the answer and its cost.
//
// Error discipline: timeouts and transient failures retry until the
// budget runs out; authoritative answers — 503 or connection refused
// (node down), 412 (fenced), other 4xx (malformed or misaddressed) —
// fail at once.
//
// Determinism: per-node jitter streams and token counters sit behind
// a per-node lock held only to mint a token, draw jitter or fold
// stats, never across a round trip, so concurrent RPCs to one node run
// side by side and fan-out goroutines share no other mutable state.
type rpcClient struct {
	pol  RPCPolicy
	car  carrier
	met  *rpcMetrics
	seed uint64 // the carrier-salted seed the per-node jitter streams derive from
	inc  string // incarnation, unique within the process and across restarts

	fenceMu sync.Mutex
	fence   FencingToken

	mu    sync.Mutex
	nodes map[string]*rpcNode
}

// rpcNode is one node's client-side state.
type rpcNode struct {
	mu     sync.Mutex
	prefix string // "<node>-<incarnation>-"
	rng    *simclock.RNG
	tokens int64
	stats  RPCStats
}

// RPCStats is one node's client accounting over submit, attach and
// detach RPCs (heartbeats are probes, not operations).
type RPCStats struct {
	// Attempts counts RPC attempts (including retries).
	Attempts int64 `json:"attempts"`
	// Retries counts attempts beyond each operation's first.
	Retries int64 `json:"retries"`
	// Timeouts counts attempts that burned the full RPC deadline.
	Timeouts int64 `json:"timeouts"`
	// Cost is the accumulated time spent on RPCs, including backoff
	// between retries: virtual over the memory carrier, wall-clock
	// over HTTP.
	Cost time.Duration `json:"cost_ns"`
	// MaxSubmit is the costliest single operation (all its attempts
	// plus backoff) — the transport's contribution to tail latency.
	MaxSubmit time.Duration `json:"max_submit_ns"`
}

// incarnations numbers the clients built in this process; with the
// wall clock at construction it makes every client's tokens unique
// against any earlier client's still sitting in a node's dedupe cache.
var incarnations atomic.Uint64

func newRPCClient(pol RPCPolicy, car carrier, seed uint64, reg *obs.Registry) *rpcClient {
	return &rpcClient{
		pol:   pol,
		car:   car,
		met:   newRPCMetrics(reg),
		seed:  seed,
		inc:   fmt.Sprintf("%x.%d", time.Now().UnixNano(), incarnations.Add(1)),
		nodes: make(map[string]*rpcNode),
	}
}

// NewLoopbackTransport builds the client over the memory carrier:
// in-process nodes answer through their own NodeAPI (Node.API), on
// virtual time. plan, when non-nil, injects node and RPC faults
// between client and node; seed derives the per-node retry-jitter
// streams; reg receives the RPC metrics (nil for a private registry).
func NewLoopbackTransport(pol RPCPolicy, plan *faults.NodePlan, seed uint64, reg *obs.Registry) (*LoopbackTransport, error) {
	pol = pol.WithDefaults()
	var car carrier = memCarrier{}
	if plan != nil {
		nf, err := faults.NewNodeFaults(*plan)
		if err != nil {
			return nil, err
		}
		car = faultCarrier{carrier: car, nf: nf, deadline: pol.Deadline}
	}
	return newRPCClient(pol, car, seed^0x6c6f6f70, reg), nil // "loop"
}

// NewHTTPTransport builds the client over the HTTP carrier, for real
// ssdcheckd members. seed derives the per-node retry-jitter streams;
// reg receives the RPC metrics (nil for a private registry). The
// underlying http.Client is shared and keep-alive-pooled; per-attempt
// deadlines come from the policy, via request contexts.
func NewHTTPTransport(pol RPCPolicy, seed uint64, reg *obs.Registry) *HTTPTransport {
	pol = pol.WithDefaults()
	return newRPCClient(pol, httpCarrier{client: &http.Client{}, deadline: pol.Deadline}, seed^0x68747470, reg) // "http"
}

// BeginRound advances the fault plan, if any, one heartbeat round;
// the coordinator calls it under its lock at the top of every Tick.
func (c *rpcClient) BeginRound() {
	if fc, ok := c.car.(faultCarrier); ok {
		fc.nf.BeginRound()
	}
}

// SetFence stamps the token onto subsequent RPCs; nodes that have
// witnessed a newer term reject them. The replication layer calls it
// when a replica wins an election.
func (c *rpcClient) SetFence(tok FencingToken) {
	c.fenceMu.Lock()
	c.fence = tok
	c.fenceMu.Unlock()
}

// Fence returns the client's current fencing token.
func (c *rpcClient) Fence() FencingToken {
	c.fenceMu.Lock()
	defer c.fenceMu.Unlock()
	return c.fence
}

// Stats returns a node's client accounting.
func (c *rpcClient) Stats(node string) RPCStats {
	rn := c.node(node)
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.stats
}

// node returns (creating on first use) the per-node client state.
func (c *rpcClient) node(id string) *rpcNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	rn, ok := c.nodes[id]
	if !ok {
		h := uint64(14695981039346656037)
		for i := 0; i < len(id); i++ {
			h = (h ^ uint64(id[i])) * 1099511628211
		}
		rn = &rpcNode{
			prefix: id + "-" + c.inc + "-",
			rng:    simclock.NewRNG(c.seed ^ h),
		}
		c.nodes[id] = rn
	}
	return rn
}

// token allocates the next idempotency token for a node:
// "<node>-<incarnation>-<counter>". One token per logical operation,
// reused across its retry attempts; the incarnation keeps a rebuilt
// or restarted coordinator's counter, which starts again at 1, from
// colliding with an earlier client's tokens in the node's dedupe
// cache and replaying stale responses.
func (c *rpcClient) token(id string) string {
	rn := c.node(id)
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rn.tokens++
	return rn.prefix + strconv.FormatInt(rn.tokens, 10)
}

// attempt runs one round trip and maps the answer: a 200 body goes to
// decode (when non-nil), anything else becomes an error.
func (c *rpcClient) attempt(n *Node, route, contentType string, body []byte, decode func([]byte) error) (time.Duration, *rpcError) {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	status, resp, cost, rerr := c.car.roundTrip(n, route, contentType, body, (*bp)[:0])
	*bp = resp
	if rerr == nil {
		rerr = answer(n.ID(), status, resp, decode)
	}
	return cost, rerr
}

// answer maps a node's answer onto the caller's error — the one place
// for both carriers. 412 means a newer term fenced the node
// (authoritative: the caller must demote, not retry); 503 is an
// authoritative down-node answer; other 4xx are malformed or
// misaddressed requests; anything else, and a 200 whose body does not
// decode, is retryable.
func answer(node string, status int, body []byte, decode func([]byte) error) *rpcError {
	if status == http.StatusOK {
		if decode != nil {
			if err := decode(body); err != nil {
				return classify(node, fmt.Errorf("decoding response: %w", err))
			}
		}
		return nil
	}
	var eresp nodeErrorResponse
	_ = json.Unmarshal(body, &eresp)
	msg := eresp.Error
	if msg == "" {
		msg = strconv.Itoa(status) + " " + http.StatusText(status)
	}
	switch {
	case status == http.StatusPreconditionFailed:
		return &rpcError{err: fmt.Errorf("node %q: %s: %w", node, msg, ErrStaleTerm)}
	case status == http.StatusServiceUnavailable:
		return &rpcError{err: fmt.Errorf("node %q: %s: %w", node, msg, ErrNodeDown)}
	case status >= 400 && status < 500:
		return &rpcError{err: fmt.Errorf("node %q: %s", node, msg)}
	default:
		return &rpcError{
			err:      fmt.Errorf("node %q: %s: %w", node, msg, ErrNodeUnreachable),
			retrying: true,
		}
	}
}

// call runs one logical operation to completion: bounded retries
// around attempt, with per-attempt latency, retry and timeout
// accounting, folded into the node's stats once the operation ends.
func (c *rpcClient) call(n *Node, route, contentType string, body []byte, decode func([]byte) error) error {
	id := n.ID()
	rn := c.node(id)
	var op RPCStats
	for attempt := 0; ; attempt++ {
		cost, rerr := c.attempt(n, route, contentType, body, decode)
		op.Attempts++
		op.Cost += cost
		c.met.Observe(id, cost)
		if rerr != nil && rerr.timeout {
			op.Timeouts++
			c.met.Timeout(id)
		}
		if rerr == nil || !rerr.retrying || attempt >= c.pol.Retry.MaxRetries {
			rn.fold(op)
			if rerr != nil {
				return rerr.err
			}
			return nil
		}
		op.Retries++
		c.met.Retry(id)
		rn.mu.Lock()
		d := c.pol.Retry.Delay(attempt, rn.rng)
		rn.mu.Unlock()
		op.Cost += d
		c.car.wait(d)
	}
}

// fold adds one finished operation to the node's stats.
func (rn *rpcNode) fold(op RPCStats) {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	rn.stats.Attempts += op.Attempts
	rn.stats.Retries += op.Retries
	rn.stats.Timeouts += op.Timeouts
	rn.stats.Cost += op.Cost
	rn.stats.MaxSubmit = max(rn.stats.MaxSubmit, op.Cost)
}

// callJSON runs a control-plane RPC (attach, detach) with JSON bodies
// both ways, decoding the response into out when non-nil.
func (c *rpcClient) callJSON(n *Node, route string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("node %q: encoding request: %w", n.ID(), err)
	}
	var decode func([]byte) error
	if out != nil {
		decode = func(b []byte) error { return json.Unmarshal(b, out) }
	}
	return c.call(n, route, "application/json", buf, decode)
}

// Heartbeat probes the node, returning the round-trip time the
// coordinator accounts; an error is a lost heartbeat. Heartbeats are
// never retried: a lost probe is exactly the signal the health machine
// consumes. The RTT is the cost of the single attempt.
func (c *rpcClient) Heartbeat(n *Node) (time.Duration, error) {
	body, err := json.Marshal(nodeHeartbeatBody{Fence: c.Fence()})
	if err != nil {
		return 0, fmt.Errorf("node %q: encoding heartbeat: %w", n.ID(), err)
	}
	rtt, rerr := c.attempt(n, "/heartbeat", "application/json", body, nil)
	if rerr != nil {
		return 0, rerr.err
	}
	return rtt, nil
}

// Submit delivers a batch to the node: one idempotency token per batch,
// retried under the policy; a retry after a lost response replays the
// original results out of the node's dedupe cache. The batch and its
// results cross as binary frames (frame.go).
func (c *rpcClient) Submit(n *Node, reqs []fleet.Request) ([]fleet.Result, error) {
	bp := getFrameBuf()
	*bp = appendSubmitFrame((*bp)[:0], &submitFrame{Token: c.token(n.ID()), Fence: c.Fence(), Requests: reqs})
	// The HTTP client may still read a request body after Do returns,
	// so the body is a copy and the pooled buffer goes back now.
	body := bytes.Clone(*bp)
	putFrameBuf(bp)
	var res []fleet.Result
	decode := func(b []byte) (err error) {
		_, res, err = decodeResultFrame(b)
		return err
	}
	if err := c.call(n, "/submit", frameContentType, body, decode); err != nil {
		return nil, err
	}
	if len(res) != len(reqs) {
		return nil, fmt.Errorf("node %q: %d results for %d requests: %w",
			n.ID(), len(res), len(reqs), ErrNodeUnreachable)
	}
	return res, nil
}

// DetachDevice exports a device's wire state off the node over
// /detach.
func (c *rpcClient) DetachDevice(n *Node, device string) (*fleet.DeviceState, error) {
	body := nodeDetachBody{Token: c.token(n.ID()), Fence: c.Fence(), Device: device}
	var resp nodeDetachResponse
	if err := c.callJSON(n, "/detach", body, &resp); err != nil {
		return nil, err
	}
	if resp.State == nil {
		return nil, fmt.Errorf("node %q: detach of %q returned no state", n.ID(), device)
	}
	return resp.State, nil
}

// AttachDevice imports a device's wire state into the node over
// /attach.
func (c *rpcClient) AttachDevice(n *Node, st *fleet.DeviceState) error {
	body := nodeAttachBody{Token: c.token(n.ID()), Fence: c.Fence(), State: st}
	return c.callJSON(n, "/attach", body, nil)
}

// rpcMetrics is the client-side observability for the network layer:
// per-node retry and timeout counters plus per-node RPC latency
// histograms, all in the coordinator's cluster registry so they render
// in the merged exposition.
type rpcMetrics struct {
	reg *obs.Registry

	mu       sync.Mutex
	retries  map[string]*obs.Counter
	timeouts map[string]*obs.Counter
	lat      map[string]*obs.Histogram
}

func newRPCMetrics(reg *obs.Registry) *rpcMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &rpcMetrics{
		reg:      reg,
		retries:  make(map[string]*obs.Counter),
		timeouts: make(map[string]*obs.Counter),
		lat:      make(map[string]*obs.Histogram),
	}
}

func (m *rpcMetrics) node(id string) (*obs.Counter, *obs.Counter, *obs.Histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.retries[id]
	if !ok {
		l := obs.Label{Name: "member", Value: id}
		r = m.reg.Counter("ssdcheck_cluster_rpc_retries_total",
			"Submit RPC retries by member.", l)
		m.retries[id] = r
		m.timeouts[id] = m.reg.Counter("ssdcheck_cluster_rpc_timeouts_total",
			"Submit RPC attempts that burned their deadline, by member.", l)
		m.lat[id] = m.reg.Histogram("ssdcheck_cluster_rpc_latency_seconds",
			"Per-attempt submit RPC latency by member.", l)
	}
	return r, m.timeouts[id], m.lat[id]
}

// Retry records one retry against the node.
func (m *rpcMetrics) Retry(id string) {
	r, _, _ := m.node(id)
	r.Inc()
}

// Timeout records one deadline-burning attempt against the node.
func (m *rpcMetrics) Timeout(id string) {
	_, t, _ := m.node(id)
	t.Inc()
}

// Observe records one attempt's latency against the node.
func (m *rpcMetrics) Observe(id string, d time.Duration) {
	_, _, h := m.node(id)
	h.Observe(d)
}
