package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

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
	body := submitBody{Requests: []submitRequest{{Device: dev, Op: "read", LBA: 2048, Sectors: 8}}}
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
	for g.Round() < 260 {
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
