package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ssdcheck/internal/ecvol"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(buf))
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

// TestServerVolumes: the volume lifecycle over HTTP — create, list,
// get, submit a mixed op batch with verified reads, flush.
func TestServerVolumes(t *testing.T) {
	m := newTestFleet(t)
	srv := httptest.NewServer(newServer(m, nil, ""))
	defer srv.Close()

	cfg := ecvol.Config{
		ID:      "vol0",
		Devices: m.DeviceIDs()[:6],
		Data:    3, Parity: 2,
		Stripes:    8,
		Seed:       42,
		Predictive: true,
	}
	var created volumeView
	if resp := postJSON(t, srv, "/v1/volumes", cfg, &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if created.Chunks != 24 || created.Config.ID != "vol0" {
		t.Fatalf("created view: %+v", created)
	}

	// Duplicate ID conflicts; bad geometry is a client error.
	if resp := postJSON(t, srv, "/v1/volumes", cfg, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}
	bad := cfg
	bad.ID, bad.Parity = "vol-bad", 0
	if resp := postJSON(t, srv, "/v1/volumes", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad geometry: %d, want 400", resp.StatusCode)
	}
	ghost := cfg
	ghost.ID, ghost.Devices = "vol-ghost", []string{"ghost-a", "ghost-b", "ghost-c", "ghost-d", "ghost-e"}
	if resp := postJSON(t, srv, "/v1/volumes", ghost, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown devices: %d, want 400", resp.StatusCode)
	}

	// List and get.
	var list struct {
		Volumes []volumeView `json:"volumes"`
	}
	if resp := getJSON(t, srv, "/v1/volumes", &list); resp.StatusCode != http.StatusOK || len(list.Volumes) != 1 {
		t.Fatalf("list: %d, %d volumes", resp.StatusCode, len(list.Volumes))
	}
	var got volumeView
	if resp := getJSON(t, srv, "/v1/volumes/vol0", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/volumes/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get unknown: %d, want 404", resp.StatusCode)
	}

	// Mixed batch: write then read back every chunk, then flush.
	var ops []volumeOp
	for c := int64(0); c < created.Chunks; c++ {
		ops = append(ops, volumeOp{Op: "write", Chunk: c})
	}
	for c := int64(0); c < created.Chunks; c++ {
		ops = append(ops, volumeOp{Op: "read", Chunk: c})
	}
	ops = append(ops, volumeOp{Op: "flush"})
	var sub struct {
		Results []volumeOpResult `json:"results"`
	}
	if resp := postJSON(t, srv, "/v1/volumes/vol0/submit", volumeSubmitBody{Ops: ops}, &sub); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if len(sub.Results) != len(ops) {
		t.Fatalf("got %d results, want %d", len(sub.Results), len(ops))
	}
	n := int(created.Chunks)
	for c := 0; c < n; c++ {
		w, r := sub.Results[c], sub.Results[n+c]
		if w.Error != "" || r.Error != "" {
			t.Fatalf("chunk %d: write err %q, read err %q", c, w.Error, r.Error)
		}
		if want := ecvol.Fingerprint(cfg.Seed, uint64(c), 1); r.Value != want || w.Value != want {
			t.Fatalf("chunk %d: read %#x write %#x, want %#x", c, r.Value, w.Value, want)
		}
		if r.Mode == nil {
			t.Fatalf("chunk %d: read result missing mode", c)
		}
	}
	if sub.Results[len(ops)-1].Error != "" {
		t.Fatalf("flush: %q", sub.Results[len(ops)-1].Error)
	}

	// Bad submits.
	if resp := postJSON(t, srv, "/v1/volumes/vol0/submit", volumeSubmitBody{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, srv, "/v1/volumes/vol0/submit",
		volumeSubmitBody{Ops: []volumeOp{{Op: "trim"}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, srv, "/v1/volumes/nope/submit",
		volumeSubmitBody{Ops: []volumeOp{{Op: "read"}}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("submit to unknown volume: %d, want 404", resp.StatusCode)
	}

	// Out-of-range chunks surface as per-op errors, not batch failures.
	var oob struct {
		Results []volumeOpResult `json:"results"`
	}
	if resp := postJSON(t, srv, "/v1/volumes/vol0/submit",
		volumeSubmitBody{Ops: []volumeOp{{Op: "read", Chunk: 10_000}}}, &oob); resp.StatusCode != http.StatusOK {
		t.Fatalf("oob read: %d", resp.StatusCode)
	}
	if oob.Results[0].Error == "" {
		t.Fatal("out-of-range read did not error")
	}
}
