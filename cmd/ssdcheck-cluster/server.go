package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/buildinfo"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

type submitResponse struct {
	Results []cluster.Result `json:"results"`
}

type versionResponse struct {
	buildinfo.Info
	Node          string  `json:"node"`
	Role          string  `json:"role"`
	Nodes         int     `json:"nodes"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// mode is what one way of running the coordinator (hosted, -join,
// -peers) supplies to the routes every mode serves.
type mode struct {
	// leader resolves the coordinator that answers this request; nil
	// while a replicated group has no leader (503 ErrNoLeader).
	leader func() *cluster.Coordinator
	submit func([]fleet.Request) ([]cluster.Result, error)
	// tick runs one heartbeat round and returns the response body.
	tick func() (any, error)
	// probe returns the /healthz identity fields: term, leader and
	// quorum size, the same keys in every mode.
	probe func() map[string]any
	// identity returns the /v1/version node and role.
	identity func() (node, role string)
	// newMember builds nodes for the join endpoint; nil leaves the
	// node-mutating routes (join, drain, kill, restore) unregistered.
	newMember func(id, addr string) (*cluster.Node, error)
	// registry, when non-nil, is rendered on /metrics after the
	// leader's merged exposition.
	registry *obs.Registry
}

// newServer serves one coordinator: hosted mode, or -join mode's
// networked coordinator. newMember builds nodes for the join endpoint —
// from the founding fleet template in hosted mode, from a base URL in
// networked mode (addr is the endpoint's ?addr= query, empty when
// absent).
func newServer(c *cluster.Coordinator, newMember func(id, addr string) (*cluster.Node, error)) http.Handler {
	return newMux(mode{
		leader: func() *cluster.Coordinator { return c },
		submit: c.Submit,
		tick: func() (any, error) {
			if err := c.Tick(); err != nil {
				return nil, err
			}
			return map[string]any{"round": c.Round(), "nodes": c.Nodes()}, nil
		},
		// A standalone coordinator is its own one-member quorum at
		// term 0, so operator tooling parses one healthz format.
		probe: func() map[string]any {
			return map[string]any{"round": c.Round(), "term": 0, "leader": "standalone", "quorum_size": 1}
		},
		identity:  func() (string, string) { return "coordinator", "cluster-coordinator" },
		newMember: newMember,
	})
}

// newMux registers the coordinator routes once for every mode.
func newMux(md mode) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	daemon.MountPprof(mux)

	// withLeader adapts a handler that needs the current coordinator;
	// a leaderless window (election in progress) answers 503.
	withLeader := func(h func(http.ResponseWriter, *http.Request, *cluster.Coordinator)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			c := md.leader()
			if c == nil {
				daemon.WriteError(w, http.StatusServiceUnavailable, cluster.ErrNoLeader)
				return
			}
			h(w, r, c)
		}
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		body := md.probe()
		status, code := "ok", http.StatusOK
		if c := md.leader(); c == nil {
			status, code = "electing", http.StatusServiceUnavailable
		} else {
			nodes := c.Nodes()
			inService := 0
			for _, st := range nodes {
				if st.InRing {
					inService++
				}
			}
			// Quorum-aware liveness: with no node in service the
			// cluster cannot place or serve anything (503); a partially
			// evacuated ring still serves everything that remains
			// placed (200, but flagged degraded for operators).
			switch {
			case inService == 0:
				status, code = "unhealthy", http.StatusServiceUnavailable
			case inService < len(nodes):
				status = "degraded"
			}
			body["nodes"], body["in_service"] = len(nodes), inService
		}
		body["status"] = status
		daemon.WriteJSON(w, code, body)
	})

	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		v := versionResponse{Info: buildinfo.Get(), UptimeSeconds: time.Since(start).Seconds()}
		v.Node, v.Role = md.identity()
		if c := md.leader(); c != nil {
			v.Nodes = len(c.Nodes())
		}
		daemon.WriteJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		batch, err := daemon.DecodeSubmit(r.Body, nil)
		if err != nil {
			daemon.WriteError(w, http.StatusBadRequest, err)
			return
		}
		results, err := md.submit(batch)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, cluster.ErrNoLeader) || errors.Is(err, cluster.ErrNoQuorum) ||
				errors.Is(err, cluster.ErrCoordinatorClosed) {
				code = http.StatusServiceUnavailable
			}
			daemon.WriteError(w, code, err)
			return
		}
		daemon.WriteJSON(w, http.StatusOK, submitResponse{Results: results})
	})

	mux.HandleFunc("POST /v1/cluster/tick", func(w http.ResponseWriter, r *http.Request) {
		body, err := md.tick()
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, cluster.ErrCoordinatorClosed) {
				code = http.StatusServiceUnavailable
			}
			daemon.WriteError(w, code, err)
			return
		}
		daemon.WriteJSON(w, http.StatusOK, body)
	})

	mux.HandleFunc("GET /v1/cluster/nodes", withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
		daemon.WriteJSON(w, http.StatusOK, map[string]any{"nodes": c.Nodes()})
	}))

	mux.HandleFunc("GET /v1/cluster/nodes/{id}", withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
		id := r.PathValue("id")
		n := c.Node(id)
		if n == nil {
			daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("node %q: %w", id, cluster.ErrUnknownNode))
			return
		}
		var status *cluster.NodeStatus
		for _, st := range c.Nodes() {
			if st.ID == id {
				status = &st
				break
			}
		}
		resp := map[string]any{"status": status}
		if m := n.Manager(); m != nil {
			resp["fleet"] = m.Metrics()
		} else {
			resp["addr"] = n.Addr() // remote member: fleet metrics live in its process
		}
		daemon.WriteJSON(w, http.StatusOK, resp)
	}))

	mux.HandleFunc("GET /v1/cluster/placement", withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
		daemon.WriteJSON(w, http.StatusOK, map[string]any{
			"placement": c.Placement(),
			"log":       c.PlacementLog(),
		})
	}))

	mux.HandleFunc("GET /v1/cluster/transitions", withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
		daemon.WriteJSON(w, http.StatusOK, map[string]any{"transitions": c.Transitions()})
	}))

	mux.HandleFunc("GET /v1/cluster/breakers", withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
		daemon.WriteJSON(w, http.StatusOK, map[string]any{
			"breakers": c.Breakers(),
			"log":      c.BreakerLog(),
		})
	}))

	// The merged cross-node view: every hosted member's sampled
	// traces, stamped with the node that served each request.
	mux.HandleFunc("GET /v1/traces", withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
		daemon.WriteTraces(w, r, c.Traces())
	}))

	mux.HandleFunc("GET /v1/cluster/metrics", withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
		daemon.WriteJSON(w, http.StatusOK, c.Metrics())
	}))

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if c := md.leader(); c != nil {
			_ = c.WritePrometheus(w)
		}
		if md.registry != nil {
			_ = md.registry.WritePrometheus(w)
		}
	})

	if md.newMember == nil {
		return mux
	}
	// Node-mutating routes act on the coordinator directly, outside any
	// replication group's lock, so only the single-coordinator modes
	// serve them.
	nodeAction := func(name string, fn func(c *cluster.Coordinator, id string) error) http.HandlerFunc {
		return withLeader(func(w http.ResponseWriter, r *http.Request, c *cluster.Coordinator) {
			id := r.PathValue("id")
			if err := fn(c, id); err != nil {
				code := http.StatusInternalServerError
				switch {
				case errors.Is(err, cluster.ErrUnknownNode):
					code = http.StatusNotFound
				case errors.Is(err, cluster.ErrCoordinatorClosed):
					code = http.StatusServiceUnavailable
				}
				daemon.WriteError(w, code, fmt.Errorf("%s %q: %w", name, id, err))
				return
			}
			daemon.WriteJSON(w, http.StatusOK, map[string]any{"nodes": c.Nodes()})
		})
	}
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/kill", nodeAction("kill", (*cluster.Coordinator).Kill))
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/restore", nodeAction("restore", (*cluster.Coordinator).Restore))
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/drain", nodeAction("drain", (*cluster.Coordinator).Leave))
	mux.HandleFunc("POST /v1/cluster/nodes/{id}/join", func(w http.ResponseWriter, r *http.Request) {
		nodeAction("join", func(c *cluster.Coordinator, id string) error {
			n, err := md.newMember(id, r.URL.Query().Get("addr"))
			if err != nil {
				return err
			}
			if err := c.Join(n); err != nil {
				if n.Manager() != nil {
					n.Close()
				}
				return err
			}
			return nil
		})(w, r)
	})
	return mux
}
