package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// serveNodeAPI mounts a node's API the way ssdcheckd does — under
// /v1/node/ — on an httptest server, and returns the local node, the
// remote handle addressed at the server, and the server itself.
func serveNodeAPI(t *testing.T, id string, devs []fleet.DeviceSpec, wrap func(http.Handler) http.Handler) (*Node, *Node, *httptest.Server) {
	t.Helper()
	n := apiNode(t, id, devs)
	var h http.Handler = http.StripPrefix("/v1/node", NodeAPIHandler(NewNodeAPI(n, 0)))
	if wrap != nil {
		h = wrap(h)
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/node/", h)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	remote, err := NewRemoteNode(id, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return n, remote, srv
}

// TestHTTPTransportSubmitRoundtrip: a batch crosses the wire, results
// come back in order, and a per-request failure is rebuilt into a
// non-nil Err from its wire message.
func TestHTTPTransportSubmitRoundtrip(t *testing.T) {
	_, remote, _ := serveNodeAPI(t, "net-a", clusterSpecs()[:1], nil)
	tr := NewHTTPTransport(RPCPolicy{}, 1, nil)

	if rtt, err := tr.Heartbeat(remote); err != nil || rtt <= 0 {
		t.Fatalf("heartbeat: rtt=%v err=%v", rtt, err)
	}
	reqs := []fleet.Request{
		{DeviceID: "dev-a", Op: blockdev.Read, LBA: 4096, Sectors: 8},
		{DeviceID: "no-such-dev", Op: blockdev.Read, Sectors: 8},
	}
	res, err := tr.Submit(remote, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results for 2 requests", len(res))
	}
	if res[0].DeviceID != "dev-a" || res[0].Err != nil {
		t.Fatalf("served result: %+v", res[0])
	}
	if res[1].Err == nil || res[1].Error == "" {
		t.Fatalf("wire error not rebuilt: %+v", res[1])
	}
}

// TestHTTPTransportDedupeAfterLostResponse: the response to the first
// submit attempt is delayed past the deadline after the node executed
// it; the retry re-sends the same idempotency token and the node
// replays the original results instead of double-executing.
func TestHTTPTransportDedupeAfterLostResponse(t *testing.T) {
	const deadline = 100 * time.Millisecond
	var (
		mu      sync.Mutex
		delayed bool
	)
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			mu.Lock()
			first := !delayed && strings.HasSuffix(r.URL.Path, "/submit")
			if first {
				delayed = true
			}
			mu.Unlock()
			if first {
				// The node already executed; the response arrives too
				// late to count.
				time.Sleep(3 * deadline)
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(rec.Body.Bytes())
		})
	}
	local, remote, _ := serveNodeAPI(t, "net-b", clusterSpecs()[:1], wrap)
	reg := obs.NewRegistry()
	tr := NewHTTPTransport(RPCPolicy{Deadline: deadline}, 1, reg)
	base := served(local)

	res, err := tr.Submit(remote, apiReqs("dev-a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("post-retry results: %+v", res)
	}
	if got := served(local) - base; got != 1 {
		t.Fatalf("node served %d requests, want 1 (retry must dedupe, not re-execute)", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`ssdcheck_cluster_rpc_timeouts_total{member="net-b"} 1`,
		`ssdcheck_cluster_rpc_retries_total{member="net-b"} 1`,
	} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("missing %s in transport metrics:\n%s", series, buf.String())
		}
	}
}

// TestHTTPTransportStoppedNode: a stopped daemon answers 503 — an
// authoritative down-node verdict, mapped to ErrNodeDown with no
// retries burned.
func TestHTTPTransportStoppedNode(t *testing.T) {
	local, remote, _ := serveNodeAPI(t, "net-c", clusterSpecs()[:1], nil)
	reg := obs.NewRegistry()
	tr := NewHTTPTransport(RPCPolicy{}, 1, reg)

	local.Stop()
	if _, err := tr.Submit(remote, apiReqs("dev-a")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("stopped node err = %v, want ErrNodeDown", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `ssdcheck_cluster_rpc_retries_total{member="net-c"} 0`) {
		t.Fatalf("authoritative 503 was retried:\n%s", buf.String())
	}
}

// TestHTTPTransportConnRefused: nothing listening is an answer, not a
// void — connection refused maps to ErrNodeDown immediately.
func TestHTTPTransportConnRefused(t *testing.T) {
	_, remote, srv := serveNodeAPI(t, "net-d", clusterSpecs()[:1], nil)
	srv.Close()
	tr := NewHTTPTransport(RPCPolicy{}, 1, nil)
	if _, err := tr.Submit(remote, apiReqs("dev-a")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("dead process err = %v, want ErrNodeDown", err)
	}
}

// TestHTTPTransportRetryExhaustion: a node that never answers inside
// the deadline costs the bounded budget — initial attempt plus
// MaxRetries, each a counted timeout — then surfaces ErrNodeUnreachable.
func TestHTTPTransportRetryExhaustion(t *testing.T) {
	const deadline = 50 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(4 * deadline)
	}))
	t.Cleanup(srv.Close)
	remote, err := NewRemoteNode("net-slow", srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := NewHTTPTransport(RPCPolicy{
		Deadline: deadline,
		Retry:    fleet.RetryPolicy{MaxRetries: 1},
	}, 1, reg)

	if _, err := tr.Submit(remote, apiReqs("dev-a")); !errors.Is(err, ErrNodeUnreachable) {
		t.Fatalf("unreachable node err = %v, want ErrNodeUnreachable", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`ssdcheck_cluster_rpc_timeouts_total{member="net-slow"} 2`,
		`ssdcheck_cluster_rpc_retries_total{member="net-slow"} 1`,
	} {
		if !strings.Contains(buf.String(), series) {
			t.Errorf("missing %s after exhaustion:\n%s", series, buf.String())
		}
	}
}

// TestHTTPTransportDeviceMove: detach pulls live device state off one
// process, attach lands it on another, and traffic follows — the
// networked failover path end to end.
func TestHTTPTransportDeviceMove(t *testing.T) {
	src, remoteSrc, _ := serveNodeAPI(t, "net-src", clusterSpecs()[:1], nil)
	dst, remoteDst, _ := serveNodeAPI(t, "net-dst", nil, nil)
	tr := NewHTTPTransport(RPCPolicy{}, 1, nil)

	st, err := tr.DetachDevice(remoteSrc, "dev-a")
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Spec.ID != "dev-a" {
		t.Fatalf("detached state: %+v", st)
	}
	if ids := src.Manager().DeviceIDs(); len(ids) != 0 {
		t.Fatalf("source still holds %v", ids)
	}
	if err := tr.AttachDevice(remoteDst, st); err != nil {
		t.Fatal(err)
	}
	if ids := dst.Manager().DeviceIDs(); len(ids) != 1 || ids[0] != "dev-a" {
		t.Fatalf("destination holds %v, want [dev-a]", ids)
	}
	res, err := tr.Submit(remoteDst, apiReqs("dev-a"))
	if err != nil || res[0].Err != nil {
		t.Fatalf("submit on migrated device: %v / %+v", err, res)
	}
}

// TestHTTPTransportTokenIncarnations: two transports — a coordinator
// and its restarted successor — never mint the same token for the same
// node, so a node's dedupe cache cannot replay a previous life's
// response.
func TestHTTPTransportTokenIncarnations(t *testing.T) {
	t1 := NewHTTPTransport(RPCPolicy{}, 1, nil)
	time.Sleep(time.Microsecond)
	t2 := NewHTTPTransport(RPCPolicy{}, 1, nil)
	for i := 0; i < 4; i++ {
		a, b := t1.token("node-x"), t2.token("node-x")
		if a == b {
			t.Fatalf("incarnations collided on token %q", a)
		}
		if !strings.HasPrefix(a, "node-x-") || !strings.HasSuffix(a, fmt.Sprintf("-%d", i+1)) {
			t.Fatalf("token %q missing node/counter structure", a)
		}
	}
}

// TestHTTPRefusedAttachKeepsDevice: a member whose process is gone
// refuses the attach of a device the ring sends it at join. The device
// goes back to the member it came from, which still holds and serves
// it, and Reconcile reports it as placed where it cannot land.
func TestHTTPRefusedAttachKeepsDevice(t *testing.T) {
	devs := clusterSpecs()
	locals := make(map[string]*Node)
	remotes := make(map[string]*Node)
	for _, id := range []string{"net-a", "net-b"} {
		locals[id], remotes[id], _ = serveNodeAPI(t, id, nil, nil)
	}
	_, dead, srv := serveNodeAPI(t, "net-dead", nil, nil)
	srv.Close()
	tr := NewHTTPTransport(RPCPolicy{}, 1, nil)
	c, err := NewCoordinator(Policy{}, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, id := range []string{"net-a", "net-b"} {
		if err := c.Join(remotes[id]); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, len(devs))
	for i, d := range devs {
		ids[i] = d.ID
	}
	if err := c.AdoptDevices(apiNode(t, "boot", devs).Manager(), ids); err != nil {
		t.Fatal(err)
	}
	before := c.Placement()

	if err := c.Join(dead); err == nil {
		t.Fatal("join moved devices onto a member whose process is gone")
	}
	var sent []string
	for _, e := range c.PlacementLog() {
		if e.To == dead.ID() {
			sent = append(sent, e.Device)
		}
	}
	if len(sent) == 0 {
		t.Fatalf("join placed nothing on %s: %+v", dead.ID(), c.PlacementLog())
	}
	for _, dev := range sent {
		src := before[dev]
		if !slices.Contains(locals[src].Manager().DeviceIDs(), dev) {
			t.Fatalf("%s: not held by its source %s after the refused attach", dev, src)
		}
		res, err := tr.Submit(remotes[src], apiReqs(dev))
		if err != nil || res[0].Err != nil {
			t.Fatalf("%s on %s: %v / %+v", dev, src, err, res)
		}
	}
	if _, err := c.Reconcile(); err == nil || !strings.Contains(err.Error(), sent[0]) {
		t.Fatalf("reconcile after the refused attach: %v, want an error naming %s", err, sent[0])
	}
}
