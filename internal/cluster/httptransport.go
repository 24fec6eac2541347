package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
)

// HTTPTransport carries coordinator traffic to real ssdcheckd
// processes over their /v1/node/* API: per-attempt wall-clock
// deadlines, bounded retries with exponential backoff and seeded
// jitter, and idempotency tokens allocated once per logical operation
// so a retry after a lost response dedupes node-side instead of
// double-executing. Submits cross as binary frames (frame.go);
// heartbeat, attach and detach, rare and off the request path, are
// JSON.
//
// Error discipline mirrors the loopback transport: timeouts and
// transient network errors retry until the budget runs out;
// authoritative answers — connection refused (no process), HTTP 503
// (node stopped), 4xx (addressing mistakes) — fail immediately.
// Nodes without an address (in-process members, e.g. a bootstrap
// fleet mixed into a remote cluster) are served directly.
type HTTPTransport struct {
	pol    RPCPolicy
	client *http.Client
	met    *rpcMetrics
	seed   uint64
	nonce  uint64 // incarnation marker baked into every token

	fenceMu sync.Mutex
	fence   FencingToken

	mu    sync.Mutex
	nodes map[string]*httpNode
}

// SetFence implements FencedTransport: subsequent node RPCs carry the
// token, and nodes reject it with 412 once a newer term has fenced
// them.
func (t *HTTPTransport) SetFence(tok FencingToken) {
	t.fenceMu.Lock()
	t.fence = tok
	t.fenceMu.Unlock()
}

// Fence returns the transport's current fencing token.
func (t *HTTPTransport) Fence() FencingToken {
	t.fenceMu.Lock()
	defer t.fenceMu.Unlock()
	return t.fence
}

// httpNode is one remote node's transport-side state: the token
// counter and the retry-jitter RNG stream.
type httpNode struct {
	mu     sync.Mutex
	rng    *simclock.RNG
	tokens int64
}

// NewHTTPTransport builds the networked transport. seed derives the
// per-node retry-jitter streams; reg receives the RPC metrics (nil
// for a private registry). The underlying http.Client is shared and
// keep-alive-pooled; per-attempt deadlines come from the policy, via
// request contexts.
func NewHTTPTransport(pol RPCPolicy, seed uint64, reg *obs.Registry) *HTTPTransport {
	return &HTTPTransport{
		pol:    pol.WithDefaults(),
		client: &http.Client{},
		met:    newRPCMetrics(reg),
		seed:   seed,
		nonce:  uint64(time.Now().UnixNano()),
		nodes:  make(map[string]*httpNode),
	}
}

// node returns (creating on first use) the per-node transport state.
func (t *HTTPTransport) node(id string) *httpNode {
	t.mu.Lock()
	defer t.mu.Unlock()
	hn, ok := t.nodes[id]
	if !ok {
		h := uint64(14695981039346656037)
		for i := 0; i < len(id); i++ {
			h = (h ^ uint64(id[i])) * 1099511628211
		}
		hn = &httpNode{rng: simclock.NewRNG(t.seed ^ h ^ 0x68747470)} // "http"
		t.nodes[id] = hn
	}
	return hn
}

// token allocates the next idempotency token for a node. One token
// per logical operation, reused across its retry attempts. The
// transport's incarnation nonce keeps a restarted coordinator's
// counter (which restarts at 1) from colliding with its previous
// life's tokens in the node's dedupe cache and replaying stale
// responses.
func (t *HTTPTransport) token(id string) string {
	hn := t.node(id)
	hn.mu.Lock()
	defer hn.mu.Unlock()
	hn.tokens++
	return fmt.Sprintf("%s-%x-%d", id, t.nonce, hn.tokens)
}

// rpcError is one attempt's classified failure.
type rpcError struct {
	err      error
	timeout  bool // burned the deadline
	retrying bool // worth another attempt
}

func (e *rpcError) Error() string { return e.err.Error() }
func (e *rpcError) Unwrap() error { return e.err }

// classify sorts a transport-level error into retryable/authoritative.
func classify(node string, err error) *rpcError {
	var ne net.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded),
		errors.As(err, &ne) && ne.Timeout():
		return &rpcError{
			err:     fmt.Errorf("node %q: rpc deadline: %w", node, ErrNodeUnreachable),
			timeout: true, retrying: true,
		}
	case errors.Is(err, syscall.ECONNREFUSED):
		// An answer, not a void: no process listens there.
		return &rpcError{err: fmt.Errorf("node %q: connection refused: %w", node, ErrNodeDown)}
	default:
		return &rpcError{
			err:      fmt.Errorf("node %q: %v: %w", node, err, ErrNodeUnreachable),
			retrying: true,
		}
	}
}

// post runs one HTTP POST attempt under the policy deadline and hands
// a 200 response's body to decode (when non-nil). The body sits in a
// pooled buffer, so decode must copy out whatever it keeps. Non-2xx
// statuses become classified errors: 503 is an authoritative down-node
// answer, 4xx are addressing mistakes, anything else is retryable.
func (t *HTTPTransport) post(node, url, contentType string, body []byte, decode func([]byte) error) *rpcError {
	ctx, cancel := context.WithTimeout(context.Background(), t.pol.Deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return &rpcError{err: fmt.Errorf("node %q: building request: %w", node, err)}
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := t.client.Do(req)
	if err != nil {
		return classify(node, err)
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	b, err := readBody((*bp)[:0], resp.Body)
	*bp = b
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eresp nodeErrorResponse
		_ = json.Unmarshal(b, &eresp)
		msg := eresp.Error
		if msg == "" {
			msg = resp.Status
		}
		switch {
		case resp.StatusCode == http.StatusPreconditionFailed:
			// Fenced: a newer term reached the node. Authoritative —
			// the caller must demote, not retry.
			return &rpcError{err: fmt.Errorf("node %q: %s: %w", node, msg, ErrStaleTerm)}
		case resp.StatusCode == http.StatusServiceUnavailable:
			return &rpcError{err: fmt.Errorf("node %q: %s: %w", node, msg, ErrNodeDown)}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return &rpcError{err: fmt.Errorf("node %q: %s", node, msg)}
		default:
			return &rpcError{
				err:      fmt.Errorf("node %q: %s: %w", node, msg, ErrNodeUnreachable),
				retrying: true,
			}
		}
	}
	if err != nil {
		return classify(node, fmt.Errorf("reading response: %w", err))
	}
	if decode != nil {
		if err := decode(b); err != nil {
			return classify(node, fmt.Errorf("decoding response: %w", err))
		}
	}
	return nil
}

// call runs a node RPC to completion: bounded retries around post,
// with per-attempt latency, retry, and timeout accounting.
func (t *HTTPTransport) call(n *Node, path, contentType string, body []byte, decode func([]byte) error) error {
	hn := t.node(n.ID())
	url := n.Addr() + path
	for attempt := 0; ; attempt++ {
		start := time.Now()
		rerr := t.post(n.ID(), url, contentType, body, decode)
		t.met.Observe(n.ID(), time.Since(start))
		if rerr == nil {
			return nil
		}
		if rerr.timeout {
			t.met.Timeout(n.ID())
		}
		if !rerr.retrying || attempt >= t.pol.Retry.MaxRetries {
			return rerr.err
		}
		t.met.Retry(n.ID())
		hn.mu.Lock()
		d := t.pol.Retry.Delay(attempt, hn.rng)
		hn.mu.Unlock()
		time.Sleep(d)
	}
}

// callJSON runs a control-plane RPC (attach, detach) with JSON bodies
// both ways, decoding the response into out when non-nil.
func (t *HTTPTransport) callJSON(n *Node, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("node %q: encoding request: %w", n.ID(), err)
	}
	var decode func([]byte) error
	if out != nil {
		decode = func(b []byte) error { return json.Unmarshal(b, out) }
	}
	return t.call(n, path, "application/json", buf, decode)
}

// Heartbeat implements Transport. Heartbeats are never retried: a
// lost probe is exactly the signal the health machine consumes. The
// RTT is the measured wall time of the single attempt.
func (t *HTTPTransport) Heartbeat(n *Node) (time.Duration, error) {
	if n.Addr() == "" {
		return DirectTransport{}.Heartbeat(n)
	}
	body, err := json.Marshal(nodeHeartbeatBody{Fence: t.Fence()})
	if err != nil {
		return 0, fmt.Errorf("node %q: encoding heartbeat: %w", n.ID(), err)
	}
	start := time.Now()
	if rerr := t.post(n.ID(), n.Addr()+"/v1/node/heartbeat", "application/json", body, nil); rerr != nil {
		return 0, rerr.err
	}
	return time.Since(start), nil
}

// Submit implements Transport: one idempotency token per batch,
// retried under the policy; a retry after a lost response replays the
// original results out of the node's dedupe cache. The batch and its
// results cross as binary frames (frame.go).
func (t *HTTPTransport) Submit(n *Node, reqs []fleet.Request) ([]fleet.Result, error) {
	if n.Addr() == "" {
		return DirectTransport{}.Submit(n, reqs)
	}
	bp := getFrameBuf()
	*bp = appendSubmitFrame((*bp)[:0], &submitFrame{Token: t.token(n.ID()), Fence: t.Fence(), Requests: reqs})
	// The HTTP client may still read a request body after Do returns,
	// so the body is a copy and the pooled buffer goes back now.
	body := bytes.Clone(*bp)
	putFrameBuf(bp)
	var res []fleet.Result
	decode := func(b []byte) (err error) {
		_, res, err = decodeResultFrame(b)
		return err
	}
	if err := t.call(n, "/v1/node/submit", frameContentType, body, decode); err != nil {
		return nil, err
	}
	if len(res) != len(reqs) {
		return nil, fmt.Errorf("node %q: %d results for %d requests: %w",
			n.ID(), len(res), len(reqs), ErrNodeUnreachable)
	}
	return res, nil
}

// DetachDevice implements DeviceMover over POST /v1/node/detach.
func (t *HTTPTransport) DetachDevice(n *Node, device string) (*fleet.DeviceState, error) {
	if m := n.Manager(); m != nil {
		return m.ExportDevice(device)
	}
	body := nodeDetachBody{Token: t.token(n.ID()), Fence: t.Fence(), Device: device}
	var resp nodeDetachResponse
	if err := t.callJSON(n, "/v1/node/detach", body, &resp); err != nil {
		return nil, err
	}
	if resp.State == nil {
		return nil, fmt.Errorf("node %q: detach of %q returned no state", n.ID(), device)
	}
	return resp.State, nil
}

// AttachDevice implements DeviceMover over POST /v1/node/attach.
func (t *HTTPTransport) AttachDevice(n *Node, st *fleet.DeviceState) error {
	if m := n.Manager(); m != nil {
		return m.ImportDevice(st)
	}
	body := nodeAttachBody{Token: t.token(n.ID()), Fence: t.Fence(), State: st}
	return t.callJSON(n, "/v1/node/attach", body, nil)
}

var _ Transport = (*HTTPTransport)(nil)
var _ DeviceMover = (*HTTPTransport)(nil)
var _ FencedTransport = (*HTTPTransport)(nil)
