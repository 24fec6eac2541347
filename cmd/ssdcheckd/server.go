package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ssdcheck/cmd/internal/daemon"
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

// fit sizes the result slice to the decoded batch, reusing capacity.
func (s *submitSlab) fit() {
	if cap(s.out) < len(s.reqs) {
		s.out = make([]fleet.Result, len(s.reqs))
	}
	s.out = s.out[:len(s.reqs)]
}

// release clears and returns the slab to the pool.
func (s *submitSlab) release() {
	clear(s.reqs)
	clear(s.out)
	submitSlabs.Put(s)
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
		daemon.WriteJSON(w, http.StatusOK, versionResponse{
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
		daemon.WriteJSON(w, code, map[string]any{
			"status":            status,
			"devices":           len(devs),
			"unhealthy_devices": quarantined,
			"fallback_models":   fallback,
			"shards":            m.Shards(),
		})
	})

	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		slab := submitSlabs.Get().(*submitSlab)
		defer slab.release()
		var err error
		if slab.reqs, err = daemon.DecodeSubmit(r.Body, slab.reqs[:0]); err != nil {
			daemon.WriteError(w, http.StatusBadRequest, err)
			return
		}
		slab.fit()
		if err := m.SubmitBatchInto(slab.reqs, slab.out); err != nil {
			// Batch-level errors mean the manager itself can't take
			// work (shutting down); per-request failures ride inside
			// the 200 results with their "error" field set, so one bad
			// device never fails the whole batch.
			code := http.StatusBadRequest
			if errors.Is(err, fleet.ErrManagerClosed) {
				code = http.StatusServiceUnavailable
			}
			daemon.WriteError(w, code, err)
			return
		}
		// WriteJSON serializes before returning, so the pooled slab is
		// safe to release once the response is on the wire.
		daemon.WriteJSON(w, http.StatusOK, submitResponse{Results: slab.out})
	})

	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, map[string]any{"devices": m.Devices()})
	})

	mux.HandleFunc("GET /v1/devices/{id}", deviceRoute(m.Device))
	mux.HandleFunc("GET /v1/devices/{id}/health", deviceRoute(m.DeviceHealth))
	mux.HandleFunc("GET /v1/devices/{id}/model", deviceRoute(m.DeviceModel))

	mux.HandleFunc("POST /v1/devices/{id}/rediagnose", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// Synchronous: the re-diagnosis runs to completion on the
		// device's shard (interleaved with any queued traffic) and the
		// fresh model report comes back in the response.
		err := m.Rediagnose(id)
		switch {
		case errors.Is(err, fleet.ErrUnknownDevice):
			daemon.WriteError(w, http.StatusNotFound, err)
			return
		case errors.Is(err, fleet.ErrDeviceQuarantined):
			// The device is out of service; probing it cannot work.
			daemon.WriteError(w, http.StatusConflict, err)
			return
		case errors.Is(err, fleet.ErrManagerClosed):
			daemon.WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		rep, ok := m.DeviceModel(id)
		if !ok {
			daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown device %q", id))
			return
		}
		if err != nil {
			// The probes ran but the rebuilt model did not validate:
			// the device stays in conservative fallback. 502 tells the
			// operator the re-diagnosis itself failed, with the report
			// alongside for the transition history.
			daemon.WriteJSON(w, http.StatusBadGateway, map[string]any{
				"error": err.Error(),
				"model": rep,
			})
			return
		}
		daemon.WriteJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, m.Metrics())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.Registry().WritePrometheus(w)
	})

	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		var traces []obs.RequestTrace
		if tr != nil {
			traces = tr.Traces()
		}
		daemon.WriteTraces(w, r, traces)
	})

	daemon.MountPprof(mux)

	return mux
}

// deviceRoute serves one device's view by path ID, 404 for an unknown
// device.
func deviceRoute[T any](get func(id string) (T, bool)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := get(id)
		if !ok {
			daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown device %q", id))
			return
		}
		daemon.WriteJSON(w, http.StatusOK, v)
	}
}
