package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"slices"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
)

// TestRPCCarriersAgree runs one table over both carriers, each against
// a freshly built node with the same devices: whatever a case does, the
// memory carrier and HTTP must answer with the same results, the same
// error (message included — the node wrote it, one mapping read it)
// and the same retry and served-request counts.
func TestRPCCarriersAgree(t *testing.T) {
	batch := []fleet.Request{
		{DeviceID: "dev-a", Op: blockdev.Read, LBA: 4096, Sectors: 8},
		{DeviceID: "dev-d", Op: blockdev.Write, LBA: 8192, Sectors: 16},
		{DeviceID: "no-such-dev", Op: blockdev.Read, Sectors: 8},
	}
	frame := appendSubmitFrame(nil, &submitFrame{Token: "tok-m", Requests: batch})
	submit := func(c *rpcClient, n *Node) ([]fleet.Result, error) { return c.Submit(n, batch) }
	raw := func(contentType string, body []byte) func(*rpcClient, *Node) ([]fleet.Result, error) {
		return func(c *rpcClient, n *Node) ([]fleet.Result, error) {
			return nil, c.call(n, "/submit", contentType, body, nil)
		}
	}
	cases := []struct {
		name   string
		prep   func(t *testing.T, c *rpcClient, local, target *Node)
		run    func(c *rpcClient, n *Node) ([]fleet.Result, error)
		want   error // nil: success; errMalformed: an authoritative 4xx
		served int64
	}{
		{name: "batch", run: submit, served: 2},
		{
			name: "stopped node",
			prep: func(t *testing.T, c *rpcClient, local, target *Node) { local.Stop() },
			run:  submit, want: ErrNodeDown,
		},
		{
			name: "stale term",
			prep: func(t *testing.T, c *rpcClient, local, target *Node) {
				c.SetFence(FencingToken{Term: 2, Leader: "rep-1"})
				if _, err := c.Heartbeat(target); err != nil {
					t.Fatal(err)
				}
				c.SetFence(FencingToken{Term: 1, Leader: "rep-0"})
			},
			run: submit, want: ErrStaleTerm,
		},
		{name: "non-frame body", run: raw("application/json", []byte(`{"token":"tok-j"}`)), want: errMalformed},
		{name: "malformed frame", run: raw(frameContentType, frame[:len(frame)-3]), want: errMalformed},
	}

	type outcome struct {
		res     []fleet.Result
		err     string
		retries int64
		served  int64
	}
	carriers := []struct {
		name  string
		build func(t *testing.T, id string) (c *rpcClient, local, target *Node)
	}{
		{"memory", func(t *testing.T, id string) (*rpcClient, *Node, *Node) {
			c, err := NewLoopbackTransport(RPCPolicy{}, nil, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := apiNode(t, id, clusterSpecs()[:2])
			return c, n, n
		}},
		{"http", func(t *testing.T, id string) (*rpcClient, *Node, *Node) {
			local, remote, _ := serveNodeAPI(t, id, clusterSpecs()[:2], nil)
			return NewHTTPTransport(RPCPolicy{}, 1, nil), local, remote
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []outcome
			for _, car := range carriers {
				c, local, target := car.build(t, "agree")
				if tc.prep != nil {
					tc.prep(t, c, local, target)
				}
				base := served(local)
				res, err := tc.run(c, target)
				switch {
				case tc.want == nil && err != nil:
					t.Fatalf("%s: %v", car.name, err)
				case tc.want == errMalformed && (err == nil || errors.Is(err, ErrNodeUnreachable) || errors.Is(err, ErrNodeDown)):
					t.Fatalf("%s: err = %v, want an authoritative 4xx", car.name, err)
				case tc.want != nil && tc.want != errMalformed && !errors.Is(err, tc.want):
					t.Fatalf("%s: err = %v, want %v", car.name, err, tc.want)
				}
				o := outcome{res: res, retries: c.Stats(target.ID()).Retries, served: served(local) - base}
				if err != nil {
					o.err = err.Error()
				}
				if o.retries != 0 {
					t.Errorf("%s: %d retries", car.name, o.retries)
				}
				if o.served != tc.served {
					t.Errorf("%s: node served %d requests, want %d", car.name, o.served, tc.served)
				}
				got = append(got, o)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("carriers disagree:\nmemory %+v\nhttp   %+v", got[0], got[1])
			}
		})
	}
}

// errMalformed marks a case whose request the node must refuse as
// malformed: an authoritative, non-retryable 4xx.
var errMalformed = errors.New("malformed request")

// TestRPCTokensOutliveRecovery: the nodes' APIs, and so their dedupe
// caches, outlive a crashed coordinator. The recovered coordinator's
// client starts its token counters at 1 again, so only its incarnation
// keeps its first submit from replaying the previous life's answer:
// the submit must execute.
func TestRPCTokensOutliveRecovery(t *testing.T) {
	devs := clusterSpecs()
	h, err := NewHarness(HarnessConfig{
		Nodes:   2,
		Devices: devs,
		Node:    nodeConfig(),
		Policy:  Policy{Seed: 7},
		RPC:     &RPCPolicy{},
		WALDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	req := []fleet.Request{{DeviceID: devs[0].ID, Op: blockdev.Read, LBA: 4096, Sectors: 8}}
	owner := h.Node(h.Coordinator().Placement()[devs[0].ID])
	submitOnce := func() {
		t.Helper()
		base := served(owner)
		res, err := h.Coordinator().Submit(req)
		if err != nil || res[0].Err != nil {
			t.Fatalf("submit: %v / %+v", err, res)
		}
		if got := served(owner) - base; got != 1 {
			t.Fatalf("%s served %d requests, want 1 (a replayed token executes nothing)", owner.ID(), got)
		}
	}
	submitOnce()
	if err := h.CrashCoordinator(); err != nil {
		t.Fatal(err)
	}
	if err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	submitOnce()

	// Clients built back to back, with no clock tick between them,
	// still mint distinct tokens.
	a, _ := NewLoopbackTransport(RPCPolicy{}, nil, 1, nil)
	b, _ := NewLoopbackTransport(RPCPolicy{}, nil, 1, nil)
	if ta, tb := a.token(owner.ID()), b.token(owner.ID()); ta == tb {
		t.Fatalf("two clients minted the same token %q", ta)
	}
}

// FuzzNodeAPIServe feeds arbitrary (route, content type, body) triples
// on the four node routes to serve, the byte-level surface both
// carriers reach. It must never panic; every answer but 200 must be a
// JSON {error} body; and a 400 or 415 answer must leave no token
// claimed and no device touched.
func FuzzNodeAPIServe(f *testing.F) {
	routes := []string{"/heartbeat", "/submit", "/attach", "/detach"}
	n := apiNode(f, "fuzz", clusterSpecs()[:1])
	frame := appendSubmitFrame(nil, &submitFrame{Token: "tok-f", Requests: apiReqs("dev-a")})
	f.Add(uint8(0), "application/json", []byte(`{"fence":{"term":3,"leader":"rep-0"}}`))
	f.Add(uint8(1), frameContentType, frame)
	f.Add(uint8(1), frameContentType, frame[:len(frame)-1])
	f.Add(uint8(1), "application/json", []byte(`{"token":"tok-j","requests":[]}`))
	f.Add(uint8(2), "application/json", []byte(`{"token":"tok-a","state":null}`))
	f.Add(uint8(2), "application/json", []byte(`{"token":"tok-a","state":{"spec":{"id":"x"}}}`))
	f.Add(uint8(3), "application/json", []byte(`{"token":"tok-d","device":"dev-a"}`))
	f.Add(uint8(3), "application/json", []byte(`{"token":"tok-d","device":"dev-a","fence":{"term":-1}}`))
	f.Add(uint8(3), "", []byte(`{`))

	f.Fuzz(func(t *testing.T, r uint8, contentType string, body []byte) {
		route := routes[int(r)%len(routes)]
		api := NewNodeAPI(n, 0)
		base, devs := served(n), n.Manager().DeviceIDs()
		status, resp := api.serve(route, contentType, body)
		if status != http.StatusOK {
			var e nodeErrorResponse
			if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" {
				t.Fatalf("%s answered %d with %q, want a JSON {error} body", route, status, resp)
			}
		}
		if status == http.StatusBadRequest || status == http.StatusUnsupportedMediaType {
			api.mu.Lock()
			claimed := len(api.seen)
			api.mu.Unlock()
			if claimed != 0 {
				t.Fatalf("%s answered %d but claimed %d tokens", route, status, claimed)
			}
			if served(n) != base || !slices.Equal(n.Manager().DeviceIDs(), devs) {
				t.Fatalf("%s answered %d but touched a device", route, status)
			}
		}
		if status == http.StatusOK && route == "/detach" {
			// Put the device back, so later inputs still have one.
			var d nodeDetachResponse
			if err := json.Unmarshal(resp, &d); err != nil {
				t.Fatal(err)
			}
			if err := n.Manager().ImportDevice(d.State); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestRPCSubmitsDoNotSerialize: the client's per-node lock covers
// token, jitter and stats, never a round trip, so two submits to one
// node are in flight at once. The node holds each submit until both
// have arrived; serialized submits would never meet.
func TestRPCSubmitsDoNotSerialize(t *testing.T) {
	arrived := make(chan struct{}, 2)
	meet := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			arrived <- struct{}{}
			for end := time.Now().Add(time.Second); len(arrived) < 2; {
				if time.Now().After(end) {
					http.Error(w, `{"error":"the other submit never arrived"}`, http.StatusConflict)
					return
				}
				time.Sleep(time.Millisecond)
			}
			inner.ServeHTTP(w, r)
		})
	}
	local, remote, _ := serveNodeAPI(t, "net-par", clusterSpecs()[:1], meet)
	tr := NewHTTPTransport(RPCPolicy{Deadline: 5 * time.Second, Retry: fleet.RetryPolicy{MaxRetries: -1}}, 1, nil)
	base := served(local)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := tr.Submit(remote, apiReqs("dev-a"))
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := served(local) - base; got != 2 {
		t.Fatalf("node served %d requests, want 2", got)
	}
}
