package main

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
)

// testRPCDeadline bounds the coordinators' node-plane RPCs here. A
// bootstrap attach rebuilds the device's simulator on the node; under
// -race beside other packages on a two-core host that exceeds the
// 200 ms default.
const testRPCDeadline = 5 * time.Second

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
		c, err := remoteCoordinator(join, 4, "A,D", 2, 42, true, dir, testRPCDeadline)
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

// TestRemoteCoordinatorRefusesMovedMember: restarted with a -join
// address that differs from the one its log holds for that member, the
// coordinator refuses to start, names the member and both addresses,
// and leaves the log as it was.
func TestRemoteCoordinatorRefusesMovedMember(t *testing.T) {
	urlA, urlB, urlC := serveNodePlane(t, "node-a"), serveNodePlane(t, "node-b"), serveNodePlane(t, "node-c")
	dir := t.TempDir()
	c, err := remoteCoordinator("node-a="+urlA+",node-b="+urlB, 4, "A,D", 2, 42, true, dir, testRPCDeadline)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	logPath := filepath.Join(dir, "log.jsonl")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	c, err = remoteCoordinator("node-b="+urlC, 4, "A,D", 2, 42, true, dir, testRPCDeadline)
	if err == nil {
		c.Close()
		t.Fatal("restart with node-b at a new address succeeded; want it refused")
	}
	for _, want := range []string{"node-b", urlB, urlC} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if after, err := os.ReadFile(logPath); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(after, before) {
		t.Errorf("refused restart changed log.jsonl (%d bytes before, %d after)", len(before), len(after))
	}
}
