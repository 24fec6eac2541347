package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// newObsFleet stands up a small fleet with the full observability
// subsystem attached: a shared registry and a sample-everything tracer.
func newObsFleet(t *testing.T) (*fleet.Manager, *obs.Registry, *obs.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(42, 1, 64)
	m, err := fleet.New(fleet.Config{
		Devices:            fleet.PresetDevices(2, []string{"A", "B"}, 7),
		Shards:             2,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
		Registry:           reg,
		Recorder:           obs.Observer{Reg: reg, Tr: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, reg, tr
}

func submitSome(t *testing.T, srv *httptest.Server, ids []string, n int) {
	t.Helper()
	var body daemon.SubmitBody
	for i := 0; i < n; i++ {
		for _, id := range ids {
			op := "write"
			if i%3 == 0 {
				op = "read"
			}
			body.Requests = append(body.Requests, daemon.SubmitRequest{
				Device: id, Op: op, LBA: int64(i) * 4096, Sectors: 8,
			})
		}
	}
	buf, _ := json.Marshal(body)
	resp, err := srv.Client().Post(srv.URL+"/v1/submit", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/submit: %d", resp.StatusCode)
	}
}

// promLine matches one Prometheus text-format sample:
// name{labels} value — with the value a float, integer, or +Inf.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

// TestMetricsPrometheusText verifies GET /metrics serves syntactically
// valid Prometheus 0.0.4 text exposition covering the fleet series.
func TestMetricsPrometheusText(t *testing.T) {
	m, _, tr := newObsFleet(t)
	srv := httptest.NewServer(newServer(m, tr, ""))
	defer srv.Close()
	submitSome(t, srv, m.DeviceIDs(), 30)

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain", ct)
	}

	types := map[string]string{}
	samples := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("bad comment line: %q", line)
			}
			if fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("bad sample line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		samples[name]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for name, typ := range map[string]string{
		"ssdcheck_requests_total":          "counter",
		"ssdcheck_predicted_hl_total":      "counter",
		"ssdcheck_request_latency_seconds": "histogram",
		"ssdcheck_device_health":           "gauge",
		"ssdcheck_fleet_devices":           "gauge",
	} {
		if got := types[name]; got != typ {
			t.Errorf("# TYPE %s = %q, want %q", name, got, typ)
		}
	}
	// Histogram exposition must carry its bucket/sum/count series.
	for _, s := range []string{
		"ssdcheck_request_latency_seconds_bucket",
		"ssdcheck_request_latency_seconds_sum",
		"ssdcheck_request_latency_seconds_count",
	} {
		if samples[s] == 0 {
			t.Errorf("no %s samples", s)
		}
	}
	// Per-device counters: one series per device, with traffic counted.
	if samples["ssdcheck_requests_total"] < 2 {
		t.Errorf("ssdcheck_requests_total series = %d, want >= 2 (one per device+op)",
			samples["ssdcheck_requests_total"])
	}
}

// TestTracesEndpoint verifies /v1/traces serves the sampled spans in
// both JSON and Chrome trace_event form.
func TestTracesEndpoint(t *testing.T) {
	m, _, tr := newObsFleet(t)
	srv := httptest.NewServer(newServer(m, tr, ""))
	defer srv.Close()
	ids := m.DeviceIDs()
	submitSome(t, srv, ids, 10)

	var out struct {
		Traces []obs.RequestTrace `json:"traces"`
	}
	resp := getJSON(t, srv, "/v1/traces", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces: %d", resp.StatusCode)
	}
	if len(out.Traces) == 0 {
		t.Fatal("/v1/traces: no traces with a rate-1 sampler")
	}
	seen := map[string]bool{}
	for _, rt := range out.Traces {
		if rt.Device == "" || rt.Op == "" {
			t.Fatalf("trace missing identity: %+v", rt)
		}
		if len(rt.Spans) == 0 {
			t.Fatalf("trace has no spans: %+v", rt)
		}
		for _, sp := range rt.Spans {
			seen[sp.Name] = true
			if sp.End < sp.Start {
				t.Fatalf("span %s ends before it starts: %+v", sp.Name, sp)
			}
		}
	}
	for _, name := range []string{"queue", "route", "predict", "submit", "calibrate"} {
		if !seen[name] {
			t.Errorf("no %q span in any trace (saw %v)", name, seen)
		}
	}

	// ?device filters to one device.
	var one struct {
		Traces []obs.RequestTrace `json:"traces"`
	}
	getJSON(t, srv, "/v1/traces?device="+ids[0], &one)
	if len(one.Traces) == 0 {
		t.Fatalf("no traces for device %s", ids[0])
	}
	for _, rt := range one.Traces {
		if rt.Device != ids[0] {
			t.Fatalf("filtered traces include device %q, want only %q", rt.Device, ids[0])
		}
	}

	// Chrome trace_event export: a traceEvents array with thread-name
	// metadata and at least one duration event.
	resp2, err := srv.Client().Get(srv.URL + "/v1/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("chrome export Content-Type = %q", ct)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, ev := range chrome.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != len(ids) {
		t.Errorf("chrome export has %d thread metadata events, want %d", phases["M"], len(ids))
	}
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Errorf("chrome export phases = %v, want duration and instant events", phases)
	}
}

// TestTracesWithoutTracer verifies the endpoint degrades to an empty
// set when tracing is off (nil tracer).
func TestTracesWithoutTracer(t *testing.T) {
	m := newTestFleet(t)
	srv := httptest.NewServer(newServer(m, nil, ""))
	defer srv.Close()

	var out struct {
		Traces []obs.RequestTrace `json:"traces"`
	}
	resp := getJSON(t, srv, "/v1/traces", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces without tracer: %d", resp.StatusCode)
	}
	if out.Traces == nil || len(out.Traces) != 0 {
		t.Fatalf("traces = %v, want empty non-null array", out.Traces)
	}
}

// TestContentTypeAudit walks the whole API surface and checks every
// JSON endpoint — success and error paths alike — declares
// application/json, while the Prometheus endpoint stays text/plain.
// This is the regression net for the shared daemon.WriteJSON helper.
func TestContentTypeAudit(t *testing.T) {
	m, _, tr := newObsFleet(t)
	srv := httptest.NewServer(newServer(m, tr, ""))
	defer srv.Close()
	id := m.DeviceIDs()[0]

	jsonPaths := []string{
		"/healthz",
		"/v1/devices",
		"/v1/devices/" + id,
		"/v1/devices/" + id + "/health",
		"/v1/devices/ghost",        // 404 error body
		"/v1/devices/ghost/health", // 404 error body
		"/v1/metrics",
		"/v1/traces",
		"/v1/traces?format=chrome",
	}
	for _, path := range jsonPaths {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q, want application/json", path, ct)
		}
	}

	// POST /v1/submit: success and error responses are both JSON.
	for _, body := range []string{
		`{"requests":[{"device":"` + id + `","op":"read","lba":0,"sectors":8}]}`,
		`{not json`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("POST /v1/submit (%d) Content-Type = %q, want application/json", resp.StatusCode, ct)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("GET /metrics Content-Type = %q, want text/plain", ct)
	}
}
