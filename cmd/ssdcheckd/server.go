package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/buildinfo"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// versionResponse is the /v1/version wire form, shared in shape with
// the cluster daemon so tooling can probe either interchangeably.
type versionResponse struct {
	buildinfo.Info
	Node          string  `json:"node"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// submitRequest is the wire form of one fleet request: the op travels
// as its conventional name ("read", "write", "trim").
type submitRequest struct {
	Device  string `json:"device"`
	Op      string `json:"op"`
	LBA     int64  `json:"lba"`
	Sectors int    `json:"sectors"`
}

type submitBody struct {
	Requests []submitRequest `json:"requests"`
}

type submitResponse struct {
	Results []fleet.Result `json:"results"`
}

// submitSlab is a reusable request/result pair for the batch endpoint.
// The fleet's ingress is allocation-free end to end; pooling the
// daemon's own slabs keeps the HTTP layer from reintroducing per-batch
// garbage on top of it. Slabs grow to the largest batch seen and are
// cleared before reuse so no device IDs or predictions linger.
type submitSlab struct {
	reqs []fleet.Request
	out  []fleet.Result
}

var submitSlabs = sync.Pool{New: func() any { return &submitSlab{} }}

// grow sizes both slices for an n-request batch, reusing capacity.
func (s *submitSlab) grow(n int) {
	if cap(s.reqs) < n {
		s.reqs = make([]fleet.Request, n)
		s.out = make([]fleet.Result, n)
	}
	s.reqs = s.reqs[:n]
	s.out = s.out[:n]
}

// release clears and returns the slab to the pool.
func (s *submitSlab) release() {
	clear(s.reqs)
	clear(s.out)
	submitSlabs.Put(s)
}

type errorResponse struct {
	Error string `json:"error"`
}

func parseOp(s string) (blockdev.Op, error) {
	switch strings.ToLower(s) {
	case "read", "r":
		return blockdev.Read, nil
	case "write", "w":
		return blockdev.Write, nil
	case "trim", "t":
		return blockdev.Trim, nil
	default:
		return 0, fmt.Errorf("unknown op %q (want read, write or trim)", s)
	}
}

// writeJSON is the single JSON response path: every handler goes
// through it (or writeError) so the Content-Type header is set
// consistently across the API surface.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// newServer wires the fleet manager and the observability subsystem
// into the daemon's HTTP surface. tr may be nil when tracing is off;
// /v1/traces then serves an empty set. nodeID is the identity reported
// on /v1/version (a cluster coordinator uses it to tell members
// apart); empty defaults to "ssdcheckd".
func newServer(m *fleet.Manager, tr *obs.Tracer, nodeID string) http.Handler {
	if nodeID == "" {
		nodeID = "ssdcheckd"
	}
	start := time.Now()
	mux := http.NewServeMux()

	// The node-to-node RPC plane: a cluster coordinator in another
	// process drives this daemon's fleet through /v1/node/* — submit
	// with idempotency tokens, heartbeats, and the attach/detach pair
	// that migrates device state during networked failover.
	if node, err := cluster.NewNodeFromManager(nodeID, m, obs.Observer{Reg: m.Registry(), Tr: tr}); err == nil {
		mux.Handle("POST /v1/node/", http.StripPrefix("/v1/node", cluster.NodeAPIHandler(node.API())))
	}

	// Erasure-coded volumes: API-created striped m+k volumes over the
	// fleet's devices, with prediction-steered reads and deferred
	// parity (internal/ecvol).
	registerVolumeAPI(mux, newVolumeRegistry(m))

	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, versionResponse{
			Info:          buildinfo.Get(),
			Node:          nodeID,
			UptimeSeconds: time.Since(start).Seconds(),
		})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The steering snapshot carries exactly the states this report
		// counts, without copying counters or histograms.
		devs := m.SteeringAll()
		quarantined, fallback := 0, 0
		for _, d := range devs {
			if d.Health == fleet.Quarantined {
				quarantined++
			}
			if d.Conservative {
				fallback++
			}
		}
		// Degraded-aware liveness: a partially quarantined fleet is
		// still serving (200, but flagged for operators); a fully
		// quarantined one is not (503, so load balancers drain us).
		// Fallback-model devices keep serving (conservatively), so
		// they are reported but never flip the status.
		status, code := "ok", http.StatusOK
		switch {
		case len(devs) > 0 && quarantined == len(devs):
			status, code = "unhealthy", http.StatusServiceUnavailable
		case quarantined > 0:
			status = "degraded"
		}
		writeJSON(w, code, map[string]any{
			"status":            status,
			"devices":           len(devs),
			"unhealthy_devices": quarantined,
			"fallback_models":   fallback,
			"shards":            m.Shards(),
		})
	})

	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		var body submitBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if len(body.Requests) == 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
			return
		}
		slab := submitSlabs.Get().(*submitSlab)
		defer slab.release()
		slab.grow(len(body.Requests))
		for i, sr := range body.Requests {
			op, err := parseOp(sr.Op)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("request %d: %w", i, err))
				return
			}
			slab.reqs[i] = fleet.Request{DeviceID: sr.Device, Op: op, LBA: sr.LBA, Sectors: sr.Sectors}
		}
		if err := m.SubmitBatchInto(slab.reqs, slab.out); err != nil {
			// Batch-level errors mean the manager itself can't take
			// work (shutting down); per-request failures ride inside
			// the 200 results with their "error" field set, so one bad
			// device never fails the whole batch.
			code := http.StatusBadRequest
			if errors.Is(err, fleet.ErrManagerClosed) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, err)
			return
		}
		// writeJSON serializes before returning, so the pooled slab is
		// safe to release once the response is on the wire.
		writeJSON(w, http.StatusOK, submitResponse{Results: slab.out})
	})

	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"devices": m.Devices()})
	})

	mux.HandleFunc("GET /v1/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		snap, ok := m.Device(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown device %q", id))
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})

	mux.HandleFunc("GET /v1/devices/{id}/health", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		hr, ok := m.DeviceHealth(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown device %q", id))
			return
		}
		writeJSON(w, http.StatusOK, hr)
	})

	mux.HandleFunc("GET /v1/devices/{id}/model", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		rep, ok := m.DeviceModel(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown device %q", id))
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("POST /v1/devices/{id}/rediagnose", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Synchronous: the re-diagnosis runs to completion on the
		// device's shard (interleaved with any queued traffic) and the
		// fresh model report comes back in the response.
		err := m.Rediagnose(id)
		switch {
		case errors.Is(err, fleet.ErrUnknownDevice):
			writeError(w, http.StatusNotFound, err)
			return
		case errors.Is(err, fleet.ErrDeviceQuarantined):
			// The device is out of service; probing it cannot work.
			writeError(w, http.StatusConflict, err)
			return
		case errors.Is(err, fleet.ErrManagerClosed):
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		rep, ok := m.DeviceModel(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown device %q", id))
			return
		}
		if err != nil {
			// The probes ran but the rebuilt model did not validate:
			// the device stays in conservative fallback. 502 tells the
			// operator the re-diagnosis itself failed, with the report
			// alongside for the transition history.
			writeJSON(w, http.StatusBadGateway, map[string]any{
				"error": err.Error(),
				"model": rep,
			})
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.Metrics())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Metrics() refreshes the fleet-level gauges before the
		// registry renders.
		_ = m.Metrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.Registry().WritePrometheus(w)
	})

	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		var traces []obs.RequestTrace
		if tr != nil {
			if dev := r.URL.Query().Get("device"); dev != "" {
				traces = tr.DeviceTraces(dev)
			} else {
				traces = tr.Traces()
			}
		}
		if traces == nil {
			traces = []obs.RequestTrace{}
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = obs.WriteChromeTrace(w, traces)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
	})

	// pprof: CPU/heap/goroutine profiling of the live daemon, wired
	// explicitly (the daemon's mux is not http.DefaultServeMux).
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	return mux
}
