package main

import (
	"errors"
	"fmt"
	"net/http"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/cluster"
)

// newGroupServer serves a replicated coordinator group. The
// coordinator routes resolve the current leader on every request —
// after a failover the same URLs keep answering from whichever replica
// now holds the lease; during an election they answer 503 with a
// retryable error body. Submits and ticks go through the group, under
// its lock. On top of those routes it serves the replica status and the
// replica chaos controls.
func newGroupServer(g *cluster.Group) http.Handler {
	mux := newMux(mode{
		leader: g.Leader,
		submit: g.Submit,
		tick: func() (any, error) {
			if err := g.Tick(); err != nil {
				return nil, err
			}
			return g.Status(), nil
		},
		probe: func() map[string]any {
			st := g.Status()
			return map[string]any{
				"term":        st.Term,
				"leader":      st.Leader,
				"quorum_size": st.Quorum,
				"replicas":    len(st.Replicas),
				"round":       st.Round,
			}
		},
		identity: func() (string, string) { return g.LeaderID(), "replicated-coordinator" },
		registry: g.Registry(),
	})

	mux.HandleFunc("GET /v1/coordinator/status", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, g.Status())
	})

	// Replica chaos controls: the HTTP face of the split-brain harness,
	// for poking a live replica group by hand.
	replicaAction := func(name string, fn func(id string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			id := r.PathValue("id")
			if err := fn(id); err != nil {
				code := http.StatusInternalServerError
				if errors.Is(err, cluster.ErrUnknownNode) {
					code = http.StatusNotFound
				}
				daemon.WriteError(w, code, fmt.Errorf("%s %q: %w", name, id, err))
				return
			}
			daemon.WriteJSON(w, http.StatusOK, g.Status())
		}
	}
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/crash", replicaAction("crash", g.Crash))
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/restart", replicaAction("restart", g.Restart))
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/partition", replicaAction("partition", g.Partition))
	mux.HandleFunc("POST /v1/coordinator/replicas/{id}/heal", replicaAction("heal", g.Heal))
	return mux
}
