package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"syscall"
	"time"

	"ssdcheck/internal/faults"
)

// carrier moves one RPC's bytes for the rpcClient: it delivers body
// to a node route (/heartbeat, /submit, /attach, /detach), appends the
// answer's bytes to resp, and returns the status and what the round
// trip cost. rerr is set only when no answer arrived; mapping an
// answer onto an error is the client's job.
type carrier interface {
	roundTrip(n *Node, route, contentType string, body, resp []byte) (status int, out []byte, cost time.Duration, rerr *rpcError)
	// wait spends one retry backoff.
	wait(d time.Duration)
}

// rpcError is one attempt's classified failure.
type rpcError struct {
	err      error
	timeout  bool // burned the deadline
	retrying bool // worth another attempt
}

func (e *rpcError) Error() string { return e.err.Error() }
func (e *rpcError) Unwrap() error { return e.err }

// directRTT is the memory carrier's constant round-trip time:
// comfortably under the default heartbeat deadline, and fixed so
// heartbeat accounting is deterministic.
const directRTT = time.Millisecond

// memCarrier hands the bytes to the in-process node's own NodeAPI, on
// virtual time: every round trip costs directRTT, and backoff is
// accounted, not slept. A node with an address lives in another
// process this carrier cannot reach; it answers as the HTTP carrier
// answers a refused connection, down, without a call into the handle.
type memCarrier struct{}

func (memCarrier) roundTrip(n *Node, route, contentType string, body, resp []byte) (int, []byte, time.Duration, *rpcError) {
	if n.Addr() != "" {
		return 0, resp, 0, &rpcError{err: fmt.Errorf("node %q: remote over the memory carrier: %w", n.ID(), ErrNodeDown)}
	}
	status, out := n.API().serve(route, contentType, body)
	return status, append(resp, out...), directRTT, nil
}

func (memCarrier) wait(time.Duration) {}

// faultCarrier interposes a seeded node-fault plan on a carrier.
// Heartbeat-loss and partition windows eat heartbeats, slow-node
// windows inflate their RTT. Every other route meets the RPC kinds: a
// partition or a dropped request is never delivered; a duplicated one
// is delivered twice (the node's token dedupe collapses the pair); a
// delayed or lost response arrives after the node executed, and one
// that is lost or later than the deadline costs exactly one deadline.
// The predicates are a pure function of (seed, round), and rounds
// advance under the coordinator's lock.
type faultCarrier struct {
	carrier  // the base; waits pass through
	nf       *faults.NodeFaults
	deadline time.Duration
}

func (f faultCarrier) roundTrip(n *Node, route, contentType string, body, resp []byte) (int, []byte, time.Duration, *rpcError) {
	id := n.ID()
	lost := func(what string) (int, []byte, time.Duration, *rpcError) {
		return 0, resp, f.deadline, &rpcError{
			err:     fmt.Errorf("node %q: %s: %w", id, what, ErrNodeUnreachable),
			timeout: true, retrying: true,
		}
	}
	if route == "/heartbeat" {
		if f.nf.DropHeartbeat(id) {
			return 0, resp, 0, &rpcError{err: fmt.Errorf("node %q: heartbeat lost: %w", id, ErrNodeUnreachable)}
		}
		status, out, cost, rerr := f.carrier.roundTrip(n, route, contentType, body, resp)
		return status, out, cost + f.nf.Delay(id), rerr
	}
	if f.nf.Partitioned(id) {
		return lost("partitioned")
	}
	if f.nf.RPCDropped(id) {
		return lost("request lost")
	}
	status, out, cost, rerr := f.carrier.roundTrip(n, route, contentType, body, resp)
	if rerr == nil && f.nf.RPCDuplicated(id) {
		status, out, cost, rerr = f.carrier.roundTrip(n, route, contentType, body, resp)
	}
	if rerr != nil || status != http.StatusOK {
		return status, out, cost, rerr
	}
	if cost += f.nf.RPCDelayed(id); f.nf.RPCTimedOut(id) || cost > f.deadline {
		// The node executed, but the answer is lost or too late to
		// count. The retry re-sends the same token and the node's
		// dedupe replays the original outcome — exactly-once.
		return lost("response lost")
	}
	return status, out, cost, nil
}

// httpCarrier posts the bytes to a node process's /v1/node/* API
// under the policy deadline, on wall time: the cost is the measured
// round trip and backoff is slept. A node without an address is an
// in-process member (e.g. a bootstrap fleet mixed into a remote
// cluster); it answers through its own NodeAPI, without a socket.
type httpCarrier struct {
	client   *http.Client
	deadline time.Duration
}

func (c httpCarrier) roundTrip(n *Node, route, contentType string, body, resp []byte) (int, []byte, time.Duration, *rpcError) {
	start := time.Now()
	if n.Addr() == "" {
		status, out, _, _ := memCarrier{}.roundTrip(n, route, contentType, body, resp)
		return status, out, time.Since(start), nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.Addr()+"/v1/node"+route, bytes.NewReader(body))
	if err != nil {
		return 0, resp, time.Since(start), &rpcError{err: fmt.Errorf("node %q: building request: %w", n.ID(), err)}
	}
	req.Header.Set("Content-Type", contentType)
	hresp, err := c.client.Do(req)
	if err != nil {
		return 0, resp, time.Since(start), classify(n.ID(), err)
	}
	out, err := readBody(resp, hresp.Body)
	_ = hresp.Body.Close()
	if err != nil && hresp.StatusCode == http.StatusOK {
		return 0, out, time.Since(start), classify(n.ID(), fmt.Errorf("reading response: %w", err))
	}
	return hresp.StatusCode, out, time.Since(start), nil
}

func (httpCarrier) wait(d time.Duration) { time.Sleep(d) }

// classify sorts a failure that produced no answer into
// retryable/authoritative.
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
