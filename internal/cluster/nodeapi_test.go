package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// apiNode builds one member with the given devices for NodeAPI tests.
func apiNode(t testing.TB, id string, devs []fleet.DeviceSpec) *Node {
	t.Helper()
	cfg := nodeConfig()
	cfg.Devices = devs
	n, err := NewNode(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// served reads the node's cumulative served-request counter.
func served(n *Node) int64 { return n.Manager().Metrics().Counters.Requests }

func apiReqs(dev string) []fleet.Request {
	return []fleet.Request{{DeviceID: dev, Op: blockdev.Read, LBA: 4096, Sectors: 8}}
}

// TestNodeAPISubmitDedupe: a duplicate token replays the original
// results without re-executing; a fresh token executes again.
func TestNodeAPISubmitDedupe(t *testing.T) {
	n := apiNode(t, "api-a", clusterSpecs()[:1])
	api := NewNodeAPI(n, 0)
	base := served(n)

	res1, err := api.Submit(FencingToken{}, "tok-1", apiReqs("dev-a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := served(n) - base; got != 1 {
		t.Fatalf("first submit served %d requests, want 1", got)
	}
	res2, err := api.Submit(FencingToken{}, "tok-1", apiReqs("dev-a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := served(n) - base; got != 1 {
		t.Fatalf("duplicate token re-executed: served %d, want 1", got)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("replayed results differ:\n%+v\n%+v", res1, res2)
	}
	if _, err := api.Submit(FencingToken{}, "tok-2", apiReqs("dev-a")); err != nil {
		t.Fatal(err)
	}
	if got := served(n) - base; got != 2 {
		t.Fatalf("fresh token after replay served %d total, want 2", got)
	}
}

// TestNodeAPIStoppedSubmitNotRemembered: a submit bounced off a
// stopped node is not a committed outcome — the same token retried
// after Resume must execute, not replay the down-node error.
func TestNodeAPIStoppedSubmitNotRemembered(t *testing.T) {
	n := apiNode(t, "api-b", clusterSpecs()[:1])
	api := NewNodeAPI(n, 0)
	base := served(n)

	n.Stop()
	if _, err := api.Submit(FencingToken{}, "tok-s", apiReqs("dev-a")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("stopped-node submit err = %v, want ErrNodeDown", err)
	}
	n.Resume()
	res, err := api.Submit(FencingToken{}, "tok-s", apiReqs("dev-a"))
	if err != nil {
		t.Fatalf("retry after resume replayed the failure: %v", err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("retry after resume: %+v", res)
	}
	if got := served(n) - base; got != 1 {
		t.Fatalf("retry after resume served %d requests, want 1", got)
	}
}

// TestNodeAPIAttachDetachDedupe: device-state transfer is exactly-once
// per token on both ends — a retried detach replays the exported state
// of the now-missing device, a retried attach replays the success
// instead of tripping on the duplicate ID.
func TestNodeAPIAttachDetachDedupe(t *testing.T) {
	src := apiNode(t, "api-src", clusterSpecs()[:1])
	dst := apiNode(t, "api-dst", nil)
	apiSrc, apiDst := NewNodeAPI(src, 0), NewNodeAPI(dst, 0)

	st, err := apiSrc.Detach(FencingToken{}, "d-1", "dev-a")
	if err != nil || st == nil {
		t.Fatalf("detach: st=%v err=%v", st, err)
	}
	if ids := src.Manager().DeviceIDs(); len(ids) != 0 {
		t.Fatalf("source still holds %v after detach", ids)
	}
	st2, err := apiSrc.Detach(FencingToken{}, "d-1", "dev-a") // replay: device long gone
	if err != nil {
		t.Fatalf("replayed detach failed: %v", err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("replayed detach returned different state")
	}
	if _, err := apiSrc.Detach(FencingToken{}, "d-2", "dev-a"); err == nil {
		t.Fatal("fresh-token detach of a missing device succeeded")
	}

	if err := apiDst.Attach(FencingToken{}, "a-1", st); err != nil {
		t.Fatal(err)
	}
	if err := apiDst.Attach(FencingToken{}, "a-1", st); err != nil { // replay
		t.Fatalf("replayed attach failed: %v", err)
	}
	if err := apiDst.Attach(FencingToken{}, "a-2", st); err == nil {
		t.Fatal("fresh-token duplicate attach succeeded")
	}
	if ids := dst.Manager().DeviceIDs(); len(ids) != 1 || ids[0] != "dev-a" {
		t.Fatalf("destination holds %v, want [dev-a]", ids)
	}
	res, err := apiDst.Submit(FencingToken{}, "s-1", apiReqs("dev-a"))
	if err != nil || res[0].Err != nil {
		t.Fatalf("submit on migrated device: %v / %+v", err, res)
	}
}

// shardGate is a fleet recorder that parks the shard goroutine inside
// the first request it serves, until released — the way to hold an
// attach (which queues behind that request on the shard's ring) inside
// the node for as long as a test needs.
type shardGate struct {
	obs.Recorder
	once, openOnce sync.Once
	entered        chan struct{}
	release        chan struct{}
}

func (g *shardGate) open() { g.openOnce.Do(func() { close(g.release) }) }

func (g *shardGate) Sampled(string, int64) bool {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return false
}

// TestNodeAPIConcurrentDuplicateAttach: a retry that arrives while the
// first attempt is still executing must not run beside it. The first
// attach is held inside the node (parked behind a gated request on the
// only shard); the same token fired again has to wait for that attempt
// and replay its success, not import the device a second time and fail
// on the duplicate ID.
func TestNodeAPIConcurrentDuplicateAttach(t *testing.T) {
	src := apiNode(t, "dup-src", clusterSpecs()[:1])
	st, err := NewNodeAPI(src, 0).Detach(FencingToken{}, "d-1", "dev-a")
	if err != nil {
		t.Fatal(err)
	}

	gate := &shardGate{Recorder: obs.Nop(), entered: make(chan struct{}), release: make(chan struct{})}
	cfg := nodeConfig()
	cfg.Shards = 1
	cfg.Recorder = gate
	cfg.Devices = clusterSpecs()[1:2]
	dst, err := NewNode("dup-dst", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dst.Close)
	t.Cleanup(gate.open) // runs before Close, which drains the shard
	api := NewNodeAPI(dst, 0)

	submitted := make(chan error, 1)
	go func() {
		_, err := api.Submit(FencingToken{}, "s-gate", apiReqs("dev-d"))
		submitted <- err
	}()
	<-gate.entered // the shard is parked; nothing behind it can run

	attach := func() <-chan error {
		c := make(chan error, 1)
		go func() { c <- api.Attach(FencingToken{}, "a-1", st) }()
		return c
	}
	first := attach()
	// The first attempt is inside the node once the device is registered
	// with the manager; from there it waits on the parked shard.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if ids := dst.Manager().DeviceIDs(); len(ids) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first attach never reached the shard")
		}
	}
	second := attach()
	// The duplicate has no outcome to return while the first attempt is
	// still executing. The pause only lets it reach its wait; the
	// verdict below does not depend on it.
	select {
	case err := <-second:
		t.Fatalf("duplicate attach returned (%v) while the first attempt was still executing", err)
	case <-time.After(20 * time.Millisecond):
	}
	gate.open()

	if err := <-first; err != nil {
		t.Fatalf("first attach: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("duplicate attach ran beside the first attempt: %v", err)
	}
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if ids := dst.Manager().DeviceIDs(); len(ids) != 2 || ids[1] != "dev-a" {
		t.Fatalf("destination holds %v, want [dev-d dev-a]", ids)
	}
	if err := api.Attach(FencingToken{}, "a-2", st); err == nil {
		t.Fatal("fresh-token duplicate attach succeeded")
	}
}

// TestNodeAPITokenEviction: the dedupe memory is FIFO-bounded — once a
// token ages out of the cap, its reuse executes again.
func TestNodeAPITokenEviction(t *testing.T) {
	n := apiNode(t, "api-c", clusterSpecs()[:1])
	api := NewNodeAPI(n, 2)
	base := served(n)

	for _, tok := range []string{"t-1", "t-2", "t-3"} { // t-1 evicted at t-3
		if _, err := api.Submit(FencingToken{}, tok, apiReqs("dev-a")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := api.Submit(FencingToken{}, "t-2", apiReqs("dev-a")); err != nil { // still cached
		t.Fatal(err)
	}
	if got := served(n) - base; got != 3 {
		t.Fatalf("cached replay re-executed: served %d, want 3", got)
	}
	if _, err := api.Submit(FencingToken{}, "t-1", apiReqs("dev-a")); err != nil { // evicted: runs again
		t.Fatal(err)
	}
	if got := served(n) - base; got != 4 {
		t.Fatalf("evicted token served %d total, want 4", got)
	}
}

// TestNodeAPIReplayFromFrame: a token's replay is its first answer,
// byte for byte, on both carriers of the node plane. Over loopback,
// which calls the NodeAPI directly, the replayed results encode to the
// live results' frame. Over HTTP the first response is held past the
// deadline after the node executed, and the retry's replay must send
// the same frame. The batch mixes a served request with per-request
// failures: an unknown device and a quarantined one.
func TestNodeAPIReplayFromFrame(t *testing.T) {
	specs := []fleet.DeviceSpec{clusterSpecs()[0], {ID: "dev-q", Preset: "A", Seed: 55,
		Faults: &faults.Config{Schedules: []faults.Schedule{{Kind: faults.FailStop, At: 1}}}}}
	batch := []fleet.Request{
		{DeviceID: "dev-a", Op: blockdev.Read, LBA: 4096, Sectors: 8},
		{DeviceID: "no-such-dev", Op: blockdev.Read, Sectors: 8},
		{DeviceID: "dev-q", Op: blockdev.Write, LBA: 4096, Sectors: 8},
	}
	// One write fail-stops dev-q, which quarantines it.
	quarantine := func(t *testing.T, n *Node) {
		t.Helper()
		if res, err := n.Submit(batch[2:]); err != nil || !errors.Is(res[0].Err, blockdev.ErrDeviceFailed) {
			t.Fatalf("fail-stop write: %v / %+v", err, res)
		}
	}

	t.Run("loopback", func(t *testing.T) {
		n := apiNode(t, "replay-lb", specs)
		quarantine(t, n)
		api := NewNodeAPI(n, 0)
		first, err := api.Submit(FencingToken{}, "tok-1", batch)
		if err != nil {
			t.Fatal(err)
		}
		if first[0].Err != nil || !errors.Is(first[1].Err, fleet.ErrUnknownDevice) ||
			!errors.Is(first[2].Err, fleet.ErrDeviceQuarantined) {
			t.Fatalf("batch outcomes not as set up: %+v", first)
		}
		replay, err := api.Submit(FencingToken{}, "tok-1", batch)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := appendResultFrame(nil, n.ID(), first), appendResultFrame(nil, n.ID(), replay); !bytes.Equal(a, b) {
			t.Fatalf("replay encodes differently:\nfirst  %x\nreplay %x", a, b)
		}
	})

	t.Run("http", func(t *testing.T) {
		const deadline = 100 * time.Millisecond
		var (
			mu     sync.Mutex
			bodies [][]byte
		)
		wrap := func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				mu.Lock()
				bodies = append(bodies, rec.Body.Bytes())
				first := len(bodies) == 1
				mu.Unlock()
				if first {
					time.Sleep(3 * deadline) // executed, but answered too late
				}
				for k, vs := range rec.Header() {
					w.Header()[k] = vs
				}
				w.WriteHeader(rec.Code)
				_, _ = w.Write(rec.Body.Bytes())
			})
		}
		local, remote, srv := serveNodeAPI(t, "replay-http", specs, wrap)
		quarantine(t, local)
		tr := NewHTTPTransport(RPCPolicy{Deadline: deadline}, 1, nil)
		res, err := tr.Submit(remote, batch)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil || res[1].Err == nil || !strings.Contains(res[2].Error, "quarantined") {
			t.Fatalf("batch outcomes not as set up: %+v", res)
		}
		srv.Close() // waits out the held first response
		if len(bodies) != 2 {
			t.Fatalf("%d submit attempts reached the node, want 2", len(bodies))
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("replay sent different bytes:\nfirst  %x\nreplay %x", bodies[0], bodies[1])
		}
	})
}

// TestNodeAPISubmitNeedsFrame: /submit speaks only the frame. A JSON
// body (the old wire form) or any other content type answers 415 and
// names the frame's type, without claiming the token or moving a
// device; a frame of an unknown version answers 400. A transport that
// meets the 415 makes exactly one attempt.
func TestNodeAPISubmitNeedsFrame(t *testing.T) {
	var attempts atomic.Int64
	var asJSON atomic.Bool
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts.Add(1)
			if asJSON.Load() {
				r.Header.Set("Content-Type", "application/json")
			}
			inner.ServeHTTP(w, r)
		})
	}
	local, remote, srv := serveNodeAPI(t, "net-ct", clusterSpecs()[:1], wrap)
	base := served(local)
	post := func(contentType string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/node/submit", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e nodeErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}

	old := []byte(`{"token":"tok-j","requests":[{"device":"dev-a","op":0,"lba":4096,"sectors":8}]}`)
	for _, ct := range []string{"application/json", "text/plain", ""} {
		if code, msg := post(ct, old); code != http.StatusUnsupportedMediaType || !strings.Contains(msg, frameContentType) {
			t.Fatalf("Content-Type %q: %d %q, want 415 naming %s", ct, code, msg, frameContentType)
		}
	}
	future := appendSubmitFrame(nil, &submitFrame{Token: "tok-v", Requests: apiReqs("dev-a")})
	future[0] = frameVersion + 1
	if code, msg := post(frameContentType, future); code != http.StatusBadRequest {
		t.Fatalf("unknown frame version: %d %q, want 400", code, msg)
	}
	if got := served(local) - base; got != 0 {
		t.Fatalf("rejected bodies served %d requests", got)
	}
	// The JSON body's token was never claimed: a frame carrying it runs.
	frame := appendSubmitFrame(nil, &submitFrame{Token: "tok-j", Requests: apiReqs("dev-a")})
	if code, msg := post(frameContentType, frame); code != http.StatusOK {
		t.Fatalf("frame after the 415s: %d %q", code, msg)
	}
	if got := served(local) - base; got != 1 {
		t.Fatalf("frame served %d requests, want 1", got)
	}

	asJSON.Store(true)
	before := attempts.Load()
	_, err := NewHTTPTransport(RPCPolicy{}, 1, nil).Submit(remote, apiReqs("dev-a"))
	if err == nil || errors.Is(err, ErrNodeUnreachable) || !strings.Contains(err.Error(), frameContentType) {
		t.Fatalf("transport meeting a 415: err = %v, want an authoritative 4xx", err)
	}
	if n := attempts.Load() - before; n != 1 {
		t.Fatalf("transport made %d attempts on a 415, want 1", n)
	}
}

// TestNodeAPIEmptyToken: every mutating operation rejects a missing
// idempotency token.
func TestNodeAPIEmptyToken(t *testing.T) {
	n := apiNode(t, "api-d", clusterSpecs()[:1])
	api := NewNodeAPI(n, 0)
	if _, err := api.Submit(FencingToken{}, "", apiReqs("dev-a")); err == nil {
		t.Error("tokenless submit succeeded")
	}
	if _, err := api.Detach(FencingToken{}, "", "dev-a"); err == nil {
		t.Error("tokenless detach succeeded")
	}
	if err := api.Attach(FencingToken{}, "", &fleet.DeviceState{}); err == nil {
		t.Error("tokenless attach succeeded")
	}
}

// Submit serves a batch, exactly once per token: a duplicate token
// replays the original results without touching the devices. The
// fence check runs first — a rejected submit never executed, so the
// superseding coordinator may safely re-issue the work. A replay is
// decoded from the remembered frame, so a failed result's Err is
// rebuilt from its message, as an HTTP caller has always received it.
func (a *NodeAPI) Submit(tok FencingToken, token string, reqs []fleet.Request) ([]fleet.Result, error) {
	res, frame, err := a.submit(tok, token, reqs)
	if err != nil || res != nil {
		return res, err
	}
	_, res, err = decodeResultFrame(frame)
	return res, err
}
