package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
)

func testNodeConfig() fleet.Config {
	return fleet.Config{
		Shards:             2,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	}
}

// newTestCluster stands up a 2-node cluster over 4 devices with manual
// heartbeat rounds.
func newTestCluster(t *testing.T) *cluster.Harness {
	t.Helper()
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes:   2,
		Devices: fleet.PresetDevices(4, []string{"A", "D"}, 99),
		Node:    testNodeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = strings.NewReader("")
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}
	return resp
}

type nodesResponse struct {
	Nodes []cluster.NodeStatus `json:"nodes"`
}

func TestClusterServerEndToEnd(t *testing.T) {
	h := newTestCluster(t)
	srv := httptest.NewServer(newServer(h.Coordinator(), func(id, _ string) (*cluster.Node, error) { return cluster.NewNode(id, testNodeConfig()) }))
	defer srv.Close()

	// Liveness and membership.
	var health map[string]any
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	if health["status"] != "ok" || health["in_service"].(float64) != 2 {
		t.Fatalf("/healthz = %v", health)
	}
	var nodes nodesResponse
	getJSON(t, srv, "/v1/cluster/nodes", &nodes)
	if len(nodes.Nodes) != 2 {
		t.Fatalf("nodes = %+v", nodes)
	}

	// Version identity.
	var version versionResponse
	getJSON(t, srv, "/v1/version", &version)
	if version.Role != "cluster-coordinator" || version.Nodes != 2 || version.Version == "" {
		t.Fatalf("/v1/version = %+v", version)
	}

	// Placement covers every device.
	var placement struct {
		Placement map[string]string        `json:"placement"`
		Log       []cluster.PlacementEntry `json:"log"`
	}
	getJSON(t, srv, "/v1/cluster/placement", &placement)
	if len(placement.Placement) != 4 || len(placement.Log) != 4 {
		t.Fatalf("/v1/cluster/placement = %+v", placement)
	}

	// Fan-out submit with node attribution.
	var body submitBody
	for dev := range placement.Placement {
		body.Requests = append(body.Requests, submitRequest{Device: dev, Op: "write", LBA: 4096, Sectors: 8})
	}
	var subResp submitResponse
	if resp := postJSON(t, srv, "/v1/submit", body, &subResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/submit: %d", resp.StatusCode)
	}
	for i, r := range subResp.Results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
		if r.Node != placement.Placement[r.DeviceID] {
			t.Fatalf("result %d attributed to %q, placement says %q", i, r.Node, placement.Placement[r.DeviceID])
		}
	}

	// Merged JSON metrics account for the whole batch.
	var cm cluster.Metrics
	getJSON(t, srv, "/v1/cluster/metrics", &cm)
	if cm.Nodes != 2 || cm.Devices != 4 || cm.Counters.Requests != int64(len(body.Requests)) {
		t.Fatalf("/v1/cluster/metrics = %+v", cm)
	}

	// Merged Prometheus exposition: unlabeled cluster series plus
	// node-labeled fleet series.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "ssdcheck_cluster_nodes 2\n") {
		t.Fatalf("/metrics missing cluster gauge:\n%s", text)
	}
	if !strings.Contains(string(text), `node="node-0"`) || !strings.Contains(string(text), `node="node-1"`) {
		t.Fatalf("/metrics missing node labels:\n%s", text)
	}

	// Kill a node, run heartbeat rounds until failover, and check the
	// survivors took its devices.
	victim := placement.Placement[body.Requests[0].Device]
	if resp := postJSON(t, srv, "/v1/cluster/nodes/"+victim+"/kill", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("kill: %d", resp.StatusCode)
	}
	var tickResp struct {
		Round int64                `json:"round"`
		Nodes []cluster.NodeStatus `json:"nodes"`
	}
	for i := 0; i < 4; i++ {
		if resp := postJSON(t, srv, "/v1/cluster/tick", nil, &tickResp); resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d: %d", i, resp.StatusCode)
		}
	}
	if tickResp.Round != 4 {
		t.Fatalf("round = %d after 4 ticks", tickResp.Round)
	}
	for _, st := range tickResp.Nodes {
		if st.ID == victim && (st.Health != fleet.Quarantined || st.Devices != 0) {
			t.Fatalf("victim after failover: %+v", st)
		}
	}
	getJSON(t, srv, "/v1/cluster/placement", &placement)
	for dev, node := range placement.Placement {
		if node == victim {
			t.Fatalf("device %q still on killed node", dev)
		}
	}

	// Degraded liveness while a member is out of the ring.
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during failover: %d", resp.StatusCode)
	}
	if health["status"] != "degraded" {
		t.Fatalf("/healthz status = %v, want degraded", health["status"])
	}

	// Health transitions were logged.
	var trans struct {
		Transitions []cluster.NodeTransition `json:"transitions"`
	}
	getJSON(t, srv, "/v1/cluster/transitions", &trans)
	if len(trans.Transitions) == 0 {
		t.Fatal("no transitions logged after a kill")
	}

	// Restore and walk the node back in: recovering, then healthy with
	// the ring rebalanced onto it.
	if resp := postJSON(t, srv, "/v1/cluster/nodes/"+victim+"/restore", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		postJSON(t, srv, "/v1/cluster/tick", nil, &tickResp)
	}
	for _, st := range tickResp.Nodes {
		if st.ID == victim && (st.Health != fleet.Healthy || !st.InRing) {
			t.Fatalf("victim after restore+2 beats: %+v", st)
		}
	}
}

// TestClusterUsageErrors: flag combinations that cannot work exit 2
// with the reason, before anything starts.
func TestClusterUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-wal-dir", t.TempDir()}, "-wal-dir needs -join or -peers"},
		{[]string{"-join", "a=http://127.0.0.1:1", "-peers", "3"}, "mutually exclusive"},
		{[]string{"extra"}, "unexpected arguments"},
	} {
		var stderr bytes.Buffer
		if code := runMain(tc.args, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr.String(), tc.want)
		}
	}
}

func TestClusterServerJoinDrain(t *testing.T) {
	h := newTestCluster(t)
	srv := httptest.NewServer(newServer(h.Coordinator(), func(id, _ string) (*cluster.Node, error) { return cluster.NewNode(id, testNodeConfig()) }))
	defer srv.Close()

	// A fresh empty node joins and the ring rebalances onto it.
	var nodes nodesResponse
	if resp := postJSON(t, srv, "/v1/cluster/nodes/node-late/join", nil, &nodes); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d", resp.StatusCode)
	}
	if len(nodes.Nodes) != 3 {
		t.Fatalf("after join: %+v", nodes.Nodes)
	}

	// Duplicate join is rejected.
	if resp := postJSON(t, srv, "/v1/cluster/nodes/node-late/join", nil, nil); resp.StatusCode == http.StatusOK {
		t.Fatal("duplicate join accepted")
	}

	// Drain it back out: no devices left on it, membership down to 2.
	if resp := postJSON(t, srv, "/v1/cluster/nodes/node-late/drain", nil, &nodes); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: %d", resp.StatusCode)
	}
	if len(nodes.Nodes) != 2 {
		t.Fatalf("after drain: %+v", nodes.Nodes)
	}
	var placement struct {
		Placement map[string]string `json:"placement"`
	}
	getJSON(t, srv, "/v1/cluster/placement", &placement)
	for dev, node := range placement.Placement {
		if node == "node-late" {
			t.Fatalf("device %q left on drained node", dev)
		}
	}

	// Unknown node actions 404.
	if resp := postJSON(t, srv, "/v1/cluster/nodes/nope/kill", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("kill unknown node: %d", resp.StatusCode)
	}
}
