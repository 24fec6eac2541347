package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// TestDecodeSubmit: a good body appends into the caller's slice
// (reusing its capacity); every malformed body is rejected with the
// reason.
func TestDecodeSubmit(t *testing.T) {
	dst := make([]fleet.Request, 0, 4)
	got, err := DecodeSubmit(strings.NewReader(
		`{"requests":[{"device":"d0","op":"w","lba":8,"sectors":8},{"device":"d1","op":"Trim","lba":16,"sectors":1}]}`), dst)
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.Request{
		{DeviceID: "d0", Op: blockdev.Write, LBA: 8, Sectors: 8},
		{DeviceID: "d1", Op: blockdev.Trim, LBA: 16, Sectors: 1},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("decode did not reuse the caller's slice")
	}

	for body, reason := range map[string]string{
		`{not json`:       "bad request body",
		`{"requests":[]}`: "empty batch",
		`{"requests":[{"device":"d0","op":"erase"}]}`: `request 0: unknown op "erase"`,
	} {
		if _, err := DecodeSubmit(strings.NewReader(body), nil); err == nil || !strings.Contains(err.Error(), reason) {
			t.Errorf("%s: err %v, want %q", body, err, reason)
		}
	}
}

// TestWriteTraces: the device and node filters combine, an empty
// result is an empty array rather than null, and the Chrome form keeps
// the JSON content type.
func TestWriteTraces(t *testing.T) {
	all := func() []obs.RequestTrace {
		return []obs.RequestTrace{
			{Device: "d0", Node: "n0", Op: "read"},
			{Device: "d1", Node: "n0", Op: "read"},
			{Device: "d0", Node: "n1", Op: "write"},
		}
	}
	for query, want := range map[string]int{
		"":                   3,
		"?device=d0":         2,
		"?node=n0":           2,
		"?device=d0&node=n1": 1,
		"?device=d9":         0,
	} {
		rec := httptest.NewRecorder()
		WriteTraces(rec, httptest.NewRequest("GET", "/v1/traces"+query, nil), all())
		var out struct {
			Traces []obs.RequestTrace `json:"traces"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if out.Traces == nil || len(out.Traces) != want {
			t.Errorf("%q: %d traces (nil=%v), want %d", query, len(out.Traces), out.Traces == nil, want)
		}
	}
	rec := httptest.NewRecorder()
	WriteTraces(rec, httptest.NewRequest("GET", "/v1/traces?format=chrome", nil), nil)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatalf("chrome export: %q %s", ct, rec.Body)
	}
}

// TestMountPprof: the profiling index answers on a private mux.
func TestMountPprof(t *testing.T) {
	mux := http.NewServeMux()
	MountPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", rec.Code)
	}
}

// TestServeTicksUntilCancelled: the ticker runs while serving, and
// once the context ends Serve shuts down cleanly and returns only after
// the ticker has stopped.
func TestServeTicksUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ticks atomic.Int64
	tick := func() error {
		if ticks.Add(1) == 3 {
			cancel()
		}
		return nil
	}
	errCh := make(chan error, 1)
	go func() { errCh <- Serve(ctx, "127.0.0.1:0", http.NotFoundHandler(), tick, time.Millisecond) }()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its context ended")
	}
	after := ticks.Load()
	time.Sleep(5 * time.Millisecond)
	if ticks.Load() != after || after < 3 {
		t.Fatalf("ticks %d after return (then %d), want the ticker stopped at >= 3", after, ticks.Load())
	}
}

// TestServeListenError: a listener that cannot start is the caller's
// error, not a hang.
func TestServeListenError(t *testing.T) {
	if err := Serve(context.Background(), "127.0.0.1:-1", http.NotFoundHandler(), nil, 0); err == nil {
		t.Fatal("Serve on an invalid address returned nil")
	}
}

func TestPresets(t *testing.T) {
	if got := strings.Join(Presets(" A, ,B,C "), ""); got != "ABC" {
		t.Fatalf("Presets = %q", got)
	}
}
