package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
)

// TestGroupServerEndToEnd drives the replicated mode's HTTP surface:
// probe fields, coordinator status, submits through the leader, a
// crash injected over HTTP, the 503 window while leaderless, and the
// probe reporting the post-failover term and leader.
func TestGroupServerEndToEnd(t *testing.T) {
	g, err := cluster.NewGroup(cluster.GroupConfig{
		Devices: fleet.PresetDevices(4, []string{"A", "D"}, 99),
		Node:    testNodeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	srv := httptest.NewServer(newGroupServer(g))
	defer srv.Close()

	var health map[string]any
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	if health["status"] != "ok" || health["leader"] != "rep-0" ||
		health["term"].(float64) != 1 || health["quorum_size"].(float64) != 2 {
		t.Fatalf("/healthz = %v", health)
	}

	var status cluster.GroupStatus
	if resp := getJSON(t, srv, "/v1/coordinator/status", &status); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/coordinator/status: %d", resp.StatusCode)
	}
	if status.Leader != "rep-0" || len(status.Replicas) != 3 {
		t.Fatalf("status = %+v", status)
	}

	var placement struct {
		Placement map[string]string `json:"placement"`
	}
	getJSON(t, srv, "/v1/cluster/placement", &placement)
	if len(placement.Placement) != 4 {
		t.Fatalf("placement = %v", placement.Placement)
	}
	dev := ""
	for d := range placement.Placement {
		dev = d
		break
	}

	var sub submitResponse
	body := daemon.SubmitBody{Requests: []daemon.SubmitRequest{{Device: dev, Op: "read", LBA: 2048, Sectors: 8}}}
	if resp := postJSON(t, srv, "/v1/submit", body, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/submit: %d", resp.StatusCode)
	}
	if len(sub.Results) != 1 || sub.Results[0].Err != nil {
		t.Fatalf("submit results = %+v", sub.Results)
	}

	// Kill the leader over HTTP; until the election timeout the probe
	// flags the cluster leaderless and submits bounce with 503.
	if resp := postJSON(t, srv, "/v1/coordinator/replicas/rep-0/crash", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("crash: %d", resp.StatusCode)
	}
	// "leader" is omitempty on the wire: zero the struct before each
	// decode so a leaderless payload doesn't leave a stale leader.
	status = cluster.GroupStatus{}
	if resp := postJSON(t, srv, "/v1/cluster/tick", nil, &status); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	if status.Leader != "" {
		t.Fatalf("leader %q right after crash, want none", status.Leader)
	}
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while leaderless: %d (%v)", resp.StatusCode, health)
	}
	if health["status"] != "electing" {
		t.Fatalf("/healthz status = %v, want electing", health["status"])
	}
	if resp := postJSON(t, srv, "/v1/submit", body, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/submit while leaderless: %d", resp.StatusCode)
	}

	for i := 0; i < 5 && status.Leader == ""; i++ {
		status = cluster.GroupStatus{}
		postJSON(t, srv, "/v1/cluster/tick", nil, &status)
	}
	if status.Leader != "rep-1" || status.Term != 2 {
		t.Fatalf("post-failover status = %+v", status)
	}
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after failover: %d", resp.StatusCode)
	}
	if health["leader"] != "rep-1" || health["term"].(float64) != 2 {
		t.Fatalf("/healthz after failover = %v", health)
	}
	if resp := postJSON(t, srv, "/v1/submit", body, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/submit after failover: %d", resp.StatusCode)
	}

	// A restarted replica rejoins and catches up.
	if resp := postJSON(t, srv, "/v1/coordinator/replicas/rep-0/restart", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("restart: %d", resp.StatusCode)
	}
	status = cluster.GroupStatus{}
	postJSON(t, srv, "/v1/cluster/tick", nil, &status)
	for _, rs := range status.Replicas {
		if rs.ID == "rep-0" && rs.Crashed {
			t.Fatalf("rep-0 still crashed after restart: %+v", rs)
		}
	}
	if resp := postJSON(t, srv, "/v1/coordinator/replicas/rep-9/crash", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("crash unknown replica: %d", resp.StatusCode)
	}
}

// TestGroupServerSnapshotIndex: once the replicated log has compacted,
// /v1/coordinator/status reports every replica's snapshot index.
func TestGroupServerSnapshotIndex(t *testing.T) {
	g, err := cluster.NewGroup(cluster.GroupConfig{
		Devices: fleet.PresetDevices(2, []string{"A"}, 99),
		Node:    testNodeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	srv := httptest.NewServer(newGroupServer(g))
	defer srv.Close()
	for g.Status().Round < 260 {
		postJSON(t, srv, "/v1/cluster/tick", nil, nil)
	}
	var status struct {
		Replicas []map[string]any `json:"replicas"`
	}
	getJSON(t, srv, "/v1/coordinator/status", &status)
	for _, rs := range status.Replicas {
		if rs["snapshot_index"] != float64(256) {
			t.Fatalf("replica status %v, want snapshot_index 256", rs)
		}
	}
}

func newTestGroup(t *testing.T) *cluster.Group {
	t.Helper()
	g, err := cluster.NewGroup(cluster.GroupConfig{
		Devices: fleet.PresetDevices(4, []string{"A", "D"}, 99),
		Node:    testNodeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestGroupServerMetrics: a -peers scrape carries the leader's merged
// exposition (coordinator gauges plus node-labeled fleet series) next
// to the group's own series, each family declared once.
func TestGroupServerMetrics(t *testing.T) {
	srv := httptest.NewServer(newGroupServer(newTestGroup(t)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"ssdcheck_cluster_term{", "ssdcheck_cluster_nodes 3\n", `node="node-0"`} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if seen[name] {
				t.Errorf("family %s declared twice", name)
			}
			seen[name] = true
		}
	}
}

// TestGroupServerReadRoutes: the read routes the other modes serve
// answer from the -peers leader, and 503 while the group has none.
func TestGroupServerReadRoutes(t *testing.T) {
	srv := httptest.NewServer(newGroupServer(newTestGroup(t)))
	defer srv.Close()
	routes := []string{"/v1/traces", "/v1/cluster/breakers", "/v1/cluster/nodes/node-0"}
	for _, path := range routes {
		if resp := getJSON(t, srv, path, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, resp.StatusCode)
		}
	}
	postJSON(t, srv, "/v1/coordinator/replicas/rep-0/crash", nil, nil)
	postJSON(t, srv, "/v1/cluster/tick", nil, nil)
	for _, path := range routes {
		var body map[string]string
		if resp := getJSON(t, srv, path, &body); resp.StatusCode != http.StatusServiceUnavailable ||
			!strings.Contains(body["error"], cluster.ErrNoLeader.Error()) {
			t.Errorf("GET %s while leaderless: %d %v, want 503 naming %v", path, resp.StatusCode, body, cluster.ErrNoLeader)
		}
	}
}

// TestGroupServerKeepsMembership: -peers serves no node-mutating
// route; membership changes only through the replicated log.
func TestGroupServerKeepsMembership(t *testing.T) {
	g := newTestGroup(t)
	srv := httptest.NewServer(newGroupServer(g))
	defer srv.Close()
	for _, action := range []string{"join", "drain", "kill", "restore"} {
		id := "node-0"
		if action == "join" {
			id = "node-late"
		}
		if resp := postJSON(t, srv, "/v1/cluster/nodes/"+id+"/"+action, nil, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", action, resp.StatusCode)
		}
	}
	if n := len(g.Leader().Nodes()); n != 3 {
		t.Fatalf("%d members after the refused actions, want 3", n)
	}
}

// TestPprofEveryMode: the cluster daemon serves runtime profiling in
// the single-coordinator and the replicated mode alike.
func TestPprofEveryMode(t *testing.T) {
	h := newTestCluster(t)
	for name, handler := range map[string]http.Handler{
		"hosted": newServer(h.Coordinator(), nil),
		"peers":  newGroupServer(newTestGroup(t)),
	} {
		srv := httptest.NewServer(handler)
		resp := getJSON(t, srv, "/debug/pprof/", nil)
		srv.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: /debug/pprof/ %d, want 200", name, resp.StatusCode)
		}
	}
}

// TestGroupServerReadsDuringFailover: scrapes of the leader-resolved
// routes race group rounds, submits and a leader crash and restart.
func TestGroupServerReadsDuringFailover(t *testing.T) {
	g := newTestGroup(t)
	srv := httptest.NewServer(newGroupServer(g))
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/v1/traces", "/v1/cluster/nodes/node-0", "/v1/cluster/breakers", "/healthz", "/v1/version"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("GET %s: %d", path, resp.StatusCode)
					return
				}
			}
		}()
	}
	body := daemon.SubmitBody{Requests: []daemon.SubmitRequest{{Device: "ssd-00-A", Op: "read", LBA: 2048, Sectors: 8}}}
	for i := 0; i < 12; i++ {
		switch i {
		case 3:
			postJSON(t, srv, "/v1/coordinator/replicas/rep-0/crash", nil, nil)
		case 8:
			postJSON(t, srv, "/v1/coordinator/replicas/rep-0/restart", nil, nil)
		}
		postJSON(t, srv, "/v1/cluster/tick", nil, nil)
		postJSON(t, srv, "/v1/submit", body, nil)
	}
	close(stop)
	wg.Wait()
}
