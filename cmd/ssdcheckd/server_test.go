package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// newTestFleet stands up the acceptance fleet: 16 devices cycling
// through every preset, reduced-strength diagnosis to keep the test
// fast.
func newTestFleet(t *testing.T) *fleet.Manager {
	t.Helper()
	m, err := fleet.New(fleet.Config{
		Devices:            fleet.PresetDevices(16, nil, 99),
		Shards:             4,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
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

func TestServerEndToEnd(t *testing.T) {
	m := newTestFleet(t)
	srv := httptest.NewServer(newServer(m, nil, ""))
	defer srv.Close()

	// Liveness.
	var health map[string]any
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	if health["devices"].(float64) != 16 {
		t.Fatalf("/healthz devices = %v, want 16", health["devices"])
	}

	// Submit a mixed batch across every device.
	ids := m.DeviceIDs()
	var body daemon.SubmitBody
	const perDev = 40
	for step := 0; step < perDev; step++ {
		for i, id := range ids {
			reqs := trace.Generate(trace.RWMixed, 1<<20, uint64(500+i), perDev)
			r := reqs[step]
			op := "write"
			if r.Op == blockdev.Read {
				op = "read"
			}
			body.Requests = append(body.Requests, daemon.SubmitRequest{
				Device: id, Op: op, LBA: r.LBA, Sectors: r.Sectors,
			})
		}
	}
	buf, _ := json.Marshal(body)
	resp, err := srv.Client().Post(srv.URL+"/v1/submit", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var subResp submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&subResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/submit: %d", resp.StatusCode)
	}
	if len(subResp.Results) != len(body.Requests) {
		t.Fatalf("got %d results, want %d", len(subResp.Results), len(body.Requests))
	}
	for i, r := range subResp.Results {
		if r.DeviceID != body.Requests[i].Device {
			t.Fatalf("result %d device %q, want %q", i, r.DeviceID, body.Requests[i].Device)
		}
		if r.Latency <= 0 {
			t.Fatalf("result %d has non-positive latency: %+v", i, r)
		}
	}

	// Device listing and single-device state.
	var devList struct {
		Devices []fleet.DeviceSnapshot `json:"devices"`
	}
	getJSON(t, srv, "/v1/devices", &devList)
	if len(devList.Devices) != 16 {
		t.Fatalf("/v1/devices: %d devices, want 16", len(devList.Devices))
	}
	var one fleet.DeviceSnapshot
	if resp := getJSON(t, srv, "/v1/devices/"+ids[0], &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/devices/%s: %d", ids[0], resp.StatusCode)
	}
	if one.Counters.Requests != perDev {
		t.Fatalf("device %s served %d requests, want %d", ids[0], one.Counters.Requests, perDev)
	}

	// Fleet metrics aggregate the batch.
	var met fleet.Metrics
	getJSON(t, srv, "/v1/metrics", &met)
	if want := int64(perDev * 16); met.Counters.Requests != want {
		t.Fatalf("/v1/metrics counters %d, want %d", met.Counters.Requests, want)
	}
	if met.Latency.P50 <= 0 {
		t.Fatalf("/v1/metrics has no latency percentiles: %+v", met.Latency)
	}
}

func TestServerErrors(t *testing.T) {
	m, err := fleet.New(fleet.Config{
		Devices:            []fleet.DeviceSpec{{ID: "solo", Preset: "A", Seed: 5}},
		Shards:             1,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := httptest.NewServer(newServer(m, nil, ""))
	defer srv.Close()

	post := func(body string) (int, submitResponse) {
		resp, err := srv.Client().Post(srv.URL+"/v1/submit", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sub submitResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, sub
	}
	// Body-level problems are HTTP errors: the batch never formed.
	if code, _ := post(`{`); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", code)
	}
	if code, _ := post(`{"requests":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", code)
	}
	if code, _ := post(`{"requests":[{"device":"solo","op":"erase","lba":0,"sectors":8}]}`); code != http.StatusBadRequest {
		t.Errorf("bad op: %d, want 400", code)
	}
	// Addressing problems are per-request: the batch succeeds (200) and
	// the failing entries carry their error, so one bad request never
	// sinks its batch-mates.
	perRequest := func(name, body string) {
		code, sub := post(body)
		if code != http.StatusOK {
			t.Errorf("%s: %d, want 200 with per-request error", name, code)
			return
		}
		if len(sub.Results) != 2 {
			t.Errorf("%s: %d results, want 2", name, len(sub.Results))
			return
		}
		if sub.Results[0].Error == "" {
			t.Errorf("%s: first entry has no error: %+v", name, sub.Results[0])
		}
		if sub.Results[1].Error != "" || sub.Results[1].Latency <= 0 {
			t.Errorf("%s: healthy batch-mate not served: %+v", name, sub.Results[1])
		}
	}
	const ok = `,{"device":"solo","op":"read","lba":0,"sectors":8}]}`
	perRequest("unknown device", `{"requests":[{"device":"ghost","op":"read","lba":0,"sectors":8}`+ok)
	perRequest("negative LBA", `{"requests":[{"device":"solo","op":"read","lba":-4096,"sectors":8}`+ok)
	perRequest("out-of-range LBA", `{"requests":[{"device":"solo","op":"read","lba":99999999999,"sectors":8}`+ok)

	if resp := getJSON(t, srv, "/v1/devices/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown device snapshot: %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/devices/ghost/health", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown device health: %d, want 404", resp.StatusCode)
	}
}

// TestServerDegraded fail-stops one of two devices and watches the
// daemon degrade gracefully: per-request errors for the dead device,
// 200 "degraded" liveness while its partner still serves, and the
// health endpoint exposing the transition log.
func TestServerDegraded(t *testing.T) {
	devs := []fleet.DeviceSpec{
		{ID: "dead", Preset: "A", Seed: 11, Faults: &faults.Config{Seed: 1, Schedules: []faults.Schedule{
			{Kind: faults.FailStop, At: 1},
		}}},
		{ID: "alive", Preset: "B", Seed: 12},
	}
	m, err := fleet.New(fleet.Config{
		Devices:            devs,
		Shards:             1,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
		Health:             fleet.HealthPolicy{QuarantineAfterErrors: 1, ProbeAfterRejections: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := httptest.NewServer(newServer(m, nil, ""))
	defer srv.Close()

	var body daemon.SubmitBody
	for i := 0; i < 4; i++ {
		for _, id := range []string{"dead", "alive"} {
			body.Requests = append(body.Requests, daemon.SubmitRequest{
				Device: id, Op: "read", LBA: int64(i) * 4096, Sectors: 8,
			})
		}
	}
	buf, _ := json.Marshal(body)
	resp, err := srv.Client().Post(srv.URL+"/v1/submit", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/submit with a failing device: %d, want 200", resp.StatusCode)
	}
	for i, r := range sub.Results {
		switch r.DeviceID {
		case "dead":
			if r.Error == "" {
				t.Errorf("result %d: dead device served a request: %+v", i, r)
			}
		case "alive":
			if r.Error != "" || r.Latency <= 0 {
				t.Errorf("result %d: healthy device not served: %+v", i, r)
			}
		}
	}

	// Partially quarantined: 200 but "degraded".
	var health map[string]any
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while degraded: %d, want 200", resp.StatusCode)
	}
	if health["status"] != "degraded" || health["unhealthy_devices"].(float64) != 1 {
		t.Fatalf("/healthz = %v, want degraded with 1 unhealthy device", health)
	}

	// The health endpoint shows the quarantine transition.
	var hr fleet.HealthReport
	if resp := getJSON(t, srv, "/v1/devices/dead/health", &hr); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/devices/dead/health: %d", resp.StatusCode)
	}
	if hr.Health != fleet.Quarantined || len(hr.Transitions) == 0 {
		t.Fatalf("dead device health = %+v, want quarantined with transitions", hr)
	}
}

// TestLoadFeaturesDir covers the startup path that attaches persisted
// diagnoses to device specs.
func TestLoadFeaturesDir(t *testing.T) {
	dir := t.TempDir()

	cfg, err := ssd.Preset("A", 7)
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.MustNew(cfg)
	now := trace.Precondition(dev, 7, 1.2, 0)
	opts := fleet.FastDiagnosis()
	opts.Seed = 7
	feats, _, err := extract.Run(dev, now, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "ssd-00-A.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := feats.Save(f, "SSD A"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	specs := fleet.PresetDevices(2, []string{"A"}, 7)
	if err := loadFeatures(specs, dir); err != nil {
		t.Fatal(err)
	}
	if specs[0].Features == nil {
		t.Error("spec 0: persisted diagnosis not attached")
	}
	if specs[1].Features != nil {
		t.Error("spec 1: features attached without a file")
	}

	// A corrupt file is a hard startup error.
	if err := os.WriteFile(filepath.Join(dir, "ssd-01-A.json"), []byte("{oops"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadFeatures(fleet.PresetDevices(2, []string{"A"}, 7), dir); err == nil {
		t.Error("corrupt features file accepted")
	}
}

// TestServerModelEndpoints covers the model-health surface: the report
// endpoint, the forced re-diagnosis endpoint (success, unknown device,
// quarantined device), and the fallback-model detail in /healthz.
func TestServerModelEndpoints(t *testing.T) {
	devs := []fleet.DeviceSpec{
		{ID: "solo", Preset: "A", Seed: 5},
		{ID: "dead", Preset: "B", Seed: 6, Faults: &faults.Config{Schedules: []faults.Schedule{
			{Kind: faults.FailStop, At: 1},
		}}},
	}
	m, err := fleet.New(fleet.Config{
		Devices:            devs,
		Shards:             1,
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
		Health:             fleet.HealthPolicy{QuarantineAfterErrors: 1, ProbeAfterRejections: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := httptest.NewServer(newServer(m, nil, ""))
	defer srv.Close()

	// Quarantine the faulty device.
	if _, err := m.Submit("dead", blockdev.Read, 0, 8); err == nil {
		t.Fatal("dead device served")
	}

	var rep fleet.ModelReport
	if resp := getJSON(t, srv, "/v1/devices/solo/model", &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/devices/solo/model: %d", resp.StatusCode)
	}
	if rep.ID != "solo" || rep.ModelHealth != fleet.ModelCalibrated || !rep.PredictorEnabled {
		t.Fatalf("model report %+v, want calibrated solo", rep)
	}
	if resp := getJSON(t, srv, "/v1/devices/ghost/model", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown device model: %d, want 404", resp.StatusCode)
	}

	postRediag := func(id string) (int, fleet.ModelReport) {
		resp, err := srv.Client().Post(srv.URL+"/v1/devices/"+id+"/rediagnose", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep fleet.ModelReport
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, rep
	}
	code, rep := postRediag("solo")
	if code != http.StatusOK {
		t.Fatalf("rediagnose solo: %d, want 200", code)
	}
	if rep.Rediags != 1 || rep.ModelHealth != fleet.ModelCalibrated {
		t.Fatalf("post-rediagnose report %+v, want calibrated with 1 rediag", rep)
	}
	if len(rep.Transitions) == 0 || rep.Transitions[0].Cause != "operator request" {
		t.Fatalf("transitions %+v, want operator request edge", rep.Transitions)
	}
	if code, _ := postRediag("ghost"); code != http.StatusNotFound {
		t.Errorf("rediagnose unknown device: %d, want 404", code)
	}
	if code, _ := postRediag("dead"); code != http.StatusConflict {
		t.Errorf("rediagnose quarantined device: %d, want 409", code)
	}

	var health map[string]any
	getJSON(t, srv, "/healthz", &health)
	if _, ok := health["fallback_models"]; !ok {
		t.Errorf("/healthz missing fallback_models detail: %v", health)
	}
	if health["fallback_models"].(float64) != 0 {
		t.Errorf("/healthz fallback_models = %v, want 0", health["fallback_models"])
	}
}

// TestServerVersion: /v1/version reports the node identity, build
// info, and a sane uptime — the fields a cluster coordinator uses to
// fingerprint members.
func TestServerVersion(t *testing.T) {
	m, err := fleet.New(fleet.Config{
		Devices:            []fleet.DeviceSpec{{ID: "solo", Preset: "A", Seed: 7}},
		PreconditionFactor: 1.2,
		Diagnosis:          fleet.FastDiagnosis(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	srv := httptest.NewServer(newServer(m, nil, "node-7"))
	defer srv.Close()

	var v versionResponse
	if resp := getJSON(t, srv, "/v1/version", &v); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/version: %d", resp.StatusCode)
	}
	if v.Node != "node-7" {
		t.Fatalf("node = %q, want %q", v.Node, "node-7")
	}
	if v.Version == "" || v.GoVersion == "" {
		t.Fatalf("missing build identity: %+v", v)
	}
	if v.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %v", v.UptimeSeconds)
	}

	// Default identity when none is configured.
	srv2 := httptest.NewServer(newServer(m, nil, ""))
	defer srv2.Close()
	var v2 versionResponse
	getJSON(t, srv2, "/v1/version", &v2)
	if v2.Node != "ssdcheckd" {
		t.Fatalf("default node = %q, want ssdcheckd", v2.Node)
	}
}
