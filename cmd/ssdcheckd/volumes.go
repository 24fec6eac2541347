package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/ecvol"
	"ssdcheck/internal/fleet"
)

// volumeView is one volume's GET representation.
type volumeView struct {
	Config ecvol.Config `json:"config"`
	Chunks int64        `json:"chunks"`
	Stats  ecvol.Stats  `json:"stats"`
}

// volumeOp is one logical operation in a volume submit batch.
type volumeOp struct {
	Op    string `json:"op"` // "read", "write" or "flush"
	Chunk int64  `json:"chunk,omitempty"`
}

type volumeSubmitBody struct {
	Ops []volumeOp `json:"ops"`
}

// volumeOpResult mirrors one op: reads carry value/mode, writes carry
// value/degraded, failures carry error with the zero value elsewhere.
type volumeOpResult struct {
	Op        string          `json:"op"`
	Chunk     int64           `json:"chunk"`
	Value     uint64          `json:"value,omitempty"`
	Mode      *ecvol.ReadMode `json:"mode,omitempty"`
	LatencyNS time.Duration   `json:"latency_ns"`
	Degraded  bool            `json:"degraded,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// volumeRegistry owns the daemon's erasure-coded volumes. Creation is
// API-driven; volumes live until the daemon exits.
type volumeRegistry struct {
	mu   sync.Mutex
	fl   *fleet.Manager
	vols map[string]*ecvol.Volume
	// order preserves creation order for GET /v1/volumes.
	order []string
}

func newVolumeRegistry(fl *fleet.Manager) *volumeRegistry {
	return &volumeRegistry{fl: fl, vols: make(map[string]*ecvol.Volume)}
}

// errVolumeExists marks a duplicate-ID creation attempt (409).
var errVolumeExists = errors.New("volume already exists")

func (vr *volumeRegistry) create(cfg ecvol.Config) (*ecvol.Volume, error) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	// Pre-resolve the defaulted ID for the duplicate check.
	if cfg.ID == "" {
		cfg.ID = "ecvol"
	}
	if _, ok := vr.vols[cfg.ID]; ok {
		return nil, fmt.Errorf("volume %q: %w", cfg.ID, errVolumeExists)
	}
	v, err := ecvol.New(vr.fl, cfg)
	if err != nil {
		return nil, err
	}
	vr.vols[cfg.ID] = v
	vr.order = append(vr.order, cfg.ID)
	return v, nil
}

func (vr *volumeRegistry) get(id string) (*ecvol.Volume, bool) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	v, ok := vr.vols[id]
	return v, ok
}

func (vr *volumeRegistry) list() []volumeView {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	out := make([]volumeView, 0, len(vr.order))
	for _, id := range vr.order {
		out = append(out, view(vr.vols[id]))
	}
	return out
}

func view(v *ecvol.Volume) volumeView {
	return volumeView{Config: v.Config(), Chunks: v.Chunks(), Stats: v.Status()}
}

// registerVolumeAPI wires the erasure-coded volume endpoints onto the
// daemon mux.
func registerVolumeAPI(mux *http.ServeMux, vr *volumeRegistry) {
	mux.HandleFunc("POST /v1/volumes", func(w http.ResponseWriter, r *http.Request) {
		var cfg ecvol.Config
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		v, err := vr.create(cfg)
		switch {
		case err == nil:
			daemon.WriteJSON(w, http.StatusCreated, view(v))
		case errors.Is(err, errVolumeExists):
			daemon.WriteError(w, http.StatusConflict, err)
		default:
			// Unknown member devices and invalid geometry are both
			// configuration errors on the caller's side.
			daemon.WriteError(w, http.StatusBadRequest, err)
		}
	})

	mux.HandleFunc("GET /v1/volumes", func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, http.StatusOK, map[string]any{"volumes": vr.list()})
	})

	mux.HandleFunc("GET /v1/volumes/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, ok := vr.get(r.PathValue("id"))
		if !ok {
			daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown volume %q", r.PathValue("id")))
			return
		}
		daemon.WriteJSON(w, http.StatusOK, view(v))
	})

	mux.HandleFunc("POST /v1/volumes/{id}/submit", func(w http.ResponseWriter, r *http.Request) {
		v, ok := vr.get(r.PathValue("id"))
		if !ok {
			daemon.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown volume %q", r.PathValue("id")))
			return
		}
		var body volumeSubmitBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if len(body.Ops) == 0 {
			daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("empty op batch"))
			return
		}
		results := make([]volumeOpResult, 0, len(body.Ops))
		for i, op := range body.Ops {
			out := volumeOpResult{Op: op.Op, Chunk: op.Chunk}
			switch op.Op {
			case "read":
				res, err := v.Read(op.Chunk)
				if err != nil {
					out.Error = err.Error()
				} else {
					out.Value, out.LatencyNS = res.Value, res.Latency
					mode := res.Mode
					out.Mode = &mode
				}
			case "write":
				res, err := v.Write(op.Chunk)
				if err != nil {
					out.Error = err.Error()
				} else {
					out.Value, out.LatencyNS, out.Degraded = res.Value, res.Latency, res.Degraded
				}
			case "flush":
				if err := v.Flush(); err != nil {
					out.Error = err.Error()
				}
			default:
				daemon.WriteError(w, http.StatusBadRequest, fmt.Errorf("op %d: unknown op %q (want read, write or flush)", i, op.Op))
				return
			}
			results = append(results, out)
		}
		daemon.WriteJSON(w, http.StatusOK, map[string]any{"results": results})
	})
}
