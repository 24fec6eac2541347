package cluster

import (
	"bytes"
	"fmt"
	"sync"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// NodeAPI is the node-side RPC surface: heartbeat, submit, and the
// device-state transfer pair (attach/detach) that networked failover
// migrates devices through. Every mutating operation carries an
// idempotency token; the API remembers the outcome of the last
// tokenCap tokens and replays it on a duplicate, so a coordinator
// retrying after a lost response — or a network that delivers a
// request twice — applies each logical operation exactly once. A token
// is claimed before its operation runs, so a duplicate that arrives
// while the first attempt is still executing waits for that attempt and
// replays its outcome instead of running beside it.
//
// Every operation also carries a fencing token (see fence.go): the
// node remembers the highest term it has witnessed and rejects older
// terms with ErrStaleTerm before touching dedupe state or devices, so
// a superseded coordinator cannot drive this node no matter how live
// its process still is. Term 0 (unfenced legacy traffic) is always
// accepted.
//
// The same NodeAPI backs both deployment shapes, through one byte-level
// entry point (serve): the ssdcheckd daemon mounts it under /v1/node/*
// (via NodeAPIHandler), and the RPC client's memory carrier calls it in
// process, so the frame decoder, status codes, dedupe and fencing
// paths the chaos tests exercise hermetically are the ones real
// processes run. Each Node owns one (Node.API).
type NodeAPI struct {
	n *Node

	mu      sync.Mutex
	settled sync.Cond // on mu: some in-flight token finished
	seen    map[string]apiOutcome
	order   []string // token FIFO for bounded eviction
	cap     int
	term    int64  // highest fenced term witnessed
	leader  string // the replica holding that term
	rejects int64  // stale-term rejections
	cRej    *obs.Counter
}

// apiOutcome is one remembered operation result, or — while inFlight —
// the claim of the attempt that is producing it. A submit is remembered
// as its encoded response frame, a few hundred bytes where the results
// it decodes to take ~100 B each.
type apiOutcome struct {
	frame    []byte
	state    *fleet.DeviceState
	err      error
	inFlight bool
}

// NewNodeAPI wraps a node. tokenCap bounds the dedupe memory; <= 0
// defaults to 1024 tokens.
func NewNodeAPI(n *Node, tokenCap int) *NodeAPI {
	if tokenCap <= 0 {
		tokenCap = 1024
	}
	a := &NodeAPI{n: n, seen: make(map[string]apiOutcome), cap: tokenCap}
	a.settled.L = &a.mu
	if reg := n.Registry(); reg != nil {
		a.cRej = reg.Counter("ssdcheck_node_fencing_rejections_total",
			"Node-plane RPCs rejected for carrying a stale coordination term.")
	}
	return a
}

// checkFence admits or rejects one RPC's fencing token. A token ahead
// of the witnessed term adopts it (the node has just heard from a
// newer leader); a token behind it is rejected authoritatively.
func (a *NodeAPI) checkFence(tok FencingToken) error {
	if tok.Term == 0 {
		return nil // unfenced legacy coordinator
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if tok.Term < a.term {
		a.rejects++
		if a.cRej != nil {
			a.cRej.Inc()
		}
		return fmt.Errorf("node %q: term %d from %q behind fenced term %d (leader %q): %w",
			a.n.ID(), tok.Term, tok.Leader, a.term, a.leader, ErrStaleTerm)
	}
	if tok.Term > a.term {
		a.term, a.leader = tok.Term, tok.Leader
	}
	return nil
}

// FencingRejections returns how many RPCs the node has rejected for
// carrying a stale term.
func (a *NodeAPI) FencingRejections() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejects
}

// begin claims token for the caller, or — when an earlier attempt
// already holds it — waits that attempt out and returns its remembered
// outcome (replayed=true). A caller that gets replayed=false owns the
// token and must call finish, on every path.
func (a *NodeAPI) begin(token string) (out apiOutcome, replayed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		out, ok := a.seen[token]
		if !ok {
			a.seen[token] = apiOutcome{inFlight: true}
			return apiOutcome{}, false
		}
		if !out.inFlight {
			return out, true
		}
		// An attempt that finishes without a committed outcome releases
		// the token; the loop then claims it for this caller.
		a.settled.Wait()
	}
}

// finish settles the caller's claim on token. A committed outcome is
// remembered (evicting the oldest past cap); an uncommitted one releases
// the token so that a retry executes.
func (a *NodeAPI) finish(token string, out apiOutcome, committed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if committed {
		a.seen[token] = out
		a.order = append(a.order, token)
		if len(a.order) > a.cap {
			delete(a.seen, a.order[0])
			a.order = a.order[1:]
		}
	} else {
		delete(a.seen, token)
	}
	a.settled.Broadcast()
}

// Heartbeat answers a liveness probe with the node's device count.
// Heartbeats are idempotent by nature and carry no idempotency token,
// but they do carry the fencing token — a stale leader's probes bounce
// like everything else, which is how it learns it was superseded.
func (a *NodeAPI) Heartbeat(tok FencingToken) (int, error) {
	if err := a.checkFence(tok); err != nil {
		return 0, err
	}
	return a.n.Heartbeat()
}

// submit is Submit in frame form: frame is the encoded response, which
// the HTTP plane sends as is and a duplicate token replays. res holds
// the live results when this call executed the batch, nil on a replay.
func (a *NodeAPI) submit(tok FencingToken, token string, reqs []fleet.Request) (res []fleet.Result, frame []byte, err error) {
	if err := a.checkFence(tok); err != nil {
		return nil, nil, err
	}
	if token == "" {
		return nil, nil, fmt.Errorf("node %q: submit without idempotency token", a.n.ID())
	}
	if out, replayed := a.begin(token); replayed {
		return nil, out.frame, nil
	}
	// A stopped node is not a committed outcome — the operation never
	// executed, so a retry after Resume must be allowed to run. The
	// same goes for an attempt that panics out of the fleet.
	committed := false
	defer func() { a.finish(token, apiOutcome{frame: frame}, committed) }()
	if res, err = a.n.Submit(reqs); err != nil {
		return nil, nil, err
	}
	bp := getFrameBuf()
	*bp = appendResultFrame((*bp)[:0], a.n.ID(), res)
	frame = bytes.Clone(*bp)
	putFrameBuf(bp)
	committed = true
	return res, frame, nil
}

// Attach imports a device's wire state into the node's fleet, exactly
// once per token: a retried attach after a lost response replays the
// original success instead of failing on the duplicate device ID.
func (a *NodeAPI) Attach(tok FencingToken, token string, st *fleet.DeviceState) (err error) {
	if err := a.checkFence(tok); err != nil {
		return err
	}
	if token == "" {
		return fmt.Errorf("node %q: attach without idempotency token", a.n.ID())
	}
	m := a.n.Manager()
	if m == nil {
		return fmt.Errorf("node %q: no local manager", a.n.ID())
	}
	if out, replayed := a.begin(token); replayed {
		return out.err
	}
	committed := false
	defer func() { a.finish(token, apiOutcome{err: err}, committed) }()
	err = m.ImportDevice(st)
	committed = true
	return err
}

// Detach exports a device's wire state out of the node's fleet,
// exactly once per token: a retried detach after a lost response
// replays the original state instead of failing on the now-missing
// device. Detach works on a stopped node — salvaging devices off a
// dead member is what failover is.
func (a *NodeAPI) Detach(tok FencingToken, token, device string) (st *fleet.DeviceState, err error) {
	if err := a.checkFence(tok); err != nil {
		return nil, err
	}
	if token == "" {
		return nil, fmt.Errorf("node %q: detach without idempotency token", a.n.ID())
	}
	m := a.n.Manager()
	if m == nil {
		return nil, fmt.Errorf("node %q: no local manager", a.n.ID())
	}
	if out, replayed := a.begin(token); replayed {
		return out.state, out.err
	}
	committed := false
	defer func() { a.finish(token, apiOutcome{state: st, err: err}, committed) }()
	st, err = m.ExportDevice(device)
	committed = true
	return st, err
}
