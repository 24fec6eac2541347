package main

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
)

// serveNodePlane stands up an empty member's /v1/node/* plane, as
// `ssdcheckd -devices 0` serves it, and returns its base URL.
func serveNodePlane(t *testing.T, id string) string {
	t.Helper()
	n, err := cluster.NewNode(id, fleet.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	mux := http.NewServeMux()
	mux.Handle("POST /v1/node/", http.StripPrefix("/v1/node", cluster.NodeAPIHandler(n.API())))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func memberIDs(c *cluster.Coordinator) []string {
	var ids []string
	for _, st := range c.Nodes() {
		ids = append(ids, st.ID)
	}
	return ids
}

// TestRemoteCoordinatorRestart: a -join coordinator with -wal-dir
// places its devices, drains a member and stops; restarted on the same
// directory and joining only the survivor, it resumes with the same
// membership, placement and log — no second bootstrap — and serves.
func TestRemoteCoordinatorRestart(t *testing.T) {
	urlA, urlB := serveNodePlane(t, "node-a"), serveNodePlane(t, "node-b")
	dir := t.TempDir()
	start := func(join string) *cluster.Coordinator {
		t.Helper()
		c, err := remoteCoordinator(join, 4, "A,D", 2, 42, 0, true, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := start("node-a=" + urlA + ",node-b=" + urlB)
	if got := len(c.Placement()); got != 4 {
		c.Close()
		t.Fatalf("bootstrap placed %d devices, want 4", got)
	}
	if err := c.Leave("node-a"); err != nil {
		c.Close()
		t.Fatal(err)
	}
	members, placement, plog := memberIDs(c), c.Placement(), c.PlacementLog()
	c.Close()

	c = start("node-b=" + urlB)
	defer c.Close()
	if got := memberIDs(c); !slices.Equal(got, members) {
		t.Errorf("recovered members %v, want %v", got, members)
	}
	if got := c.Placement(); !maps.Equal(got, placement) {
		t.Errorf("recovered placement %v, want %v", got, placement)
	}
	if got := c.PlacementLog(); !slices.Equal(got, plog) {
		t.Errorf("recovered placement log has %d entries, want the %d logged before the restart", len(got), len(plog))
	}

	var reqs []fleet.Request
	for dev := range placement {
		reqs = append(reqs, fleet.Request{DeviceID: dev, Op: blockdev.Write, LBA: 4096, Sectors: 8})
	}
	res, err := c.Submit(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil || r.Node != "node-b" {
			t.Errorf("%s: served by %q, err %v; want node-b, no error", r.DeviceID, r.Node, r.Err)
		}
	}
}
