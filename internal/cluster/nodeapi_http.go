package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"ssdcheck/internal/fleet"
)

// JSON bodies of the node API's control-plane routes: heartbeat, attach
// and detach are rare and off the request path. Submit, the hot route,
// carries the binary frame of frame.go.

type nodeHeartbeatBody struct {
	Fence FencingToken `json:"fence,omitempty"`
}

type nodeHeartbeatResponse struct {
	Node    string `json:"node"`
	Devices int    `json:"devices"`
}

type nodeAttachBody struct {
	Token string             `json:"token"`
	Fence FencingToken       `json:"fence,omitempty"`
	State *fleet.DeviceState `json:"state"`
}

type nodeDetachBody struct {
	Token  string       `json:"token"`
	Fence  FencingToken `json:"fence,omitempty"`
	Device string       `json:"device"`
}

type nodeDetachResponse struct {
	Node  string             `json:"node"`
	State *fleet.DeviceState `json:"state"`
}

type nodeErrorResponse struct {
	Error string `json:"error"`
}

// nodeAPIStatus maps node API errors onto HTTP statuses the transport
// distinguishes: 503 for a down node (retryable reachability), 412
// for a stale fencing term (authoritative: the caller was superseded
// and must demote), 404 and 409 for addressing mistakes (not
// retryable), 500 otherwise.
func nodeAPIStatus(err error) int {
	switch {
	case errors.Is(err, ErrStaleTerm):
		return http.StatusPreconditionFailed
	case errors.Is(err, ErrNodeDown), errors.Is(err, fleet.ErrManagerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, fleet.ErrUnknownDevice):
		return http.StatusNotFound
	case strings.Contains(err.Error(), "duplicate device"):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func nodeAPIJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func nodeAPIError(w http.ResponseWriter, status int, err error) {
	nodeAPIJSON(w, status, nodeErrorResponse{Error: err.Error()})
}

// NodeAPIHandler serves a NodeAPI over HTTP. The ssdcheckd daemon
// mounts it under /v1/node/ (strip the prefix before routing); tests
// and benchmarks mount it on httptest servers. Routes, all POST:
//
//	/heartbeat  {fence?}                 → {node, devices}
//	/submit     request frame            → response frame
//	/attach     {token, fence?, state}   → {node}
//	/detach     {token, fence?, device}  → {node, state}
//
// Submit takes only the binary frame (frame.go): any other
// Content-Type answers 415 and a malformed frame 400, before the token
// is claimed or a device touched. A stale fencing term answers 412
// (Precondition Failed) before any state is touched. Every error
// answer, on every route, is a JSON {error} body.
func NodeAPIHandler(a *NodeAPI) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		// The body is optional: legacy probes post {}, fenced
		// coordinators post {fence}. Decode errors read as unfenced.
		var body nodeHeartbeatBody
		_ = json.NewDecoder(r.Body).Decode(&body)
		n, err := a.Heartbeat(body.Fence)
		if err != nil {
			nodeAPIError(w, nodeAPIStatus(err), err)
			return
		}
		nodeAPIJSON(w, http.StatusOK, nodeHeartbeatResponse{Node: a.n.ID(), Devices: n})
	})

	mux.HandleFunc("POST /submit", func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != frameContentType {
			nodeAPIError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("submit body has Content-Type %q, want %s", ct, frameContentType))
			return
		}
		bp := getFrameBuf()
		defer putFrameBuf(bp)
		b, err := readBody((*bp)[:0], r.Body)
		*bp = b
		var f submitFrame
		if err == nil {
			f, err = decodeSubmitFrame(b)
		}
		if err != nil {
			nodeAPIError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		_, frame, err := a.submit(f.Fence, f.Token, f.Requests)
		if err != nil {
			nodeAPIError(w, nodeAPIStatus(err), err)
			return
		}
		w.Header().Set("Content-Type", frameContentType)
		_, _ = w.Write(frame)
	})

	mux.HandleFunc("POST /attach", func(w http.ResponseWriter, r *http.Request) {
		var body nodeAttachBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			nodeAPIError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if err := a.Attach(body.Fence, body.Token, body.State); err != nil {
			nodeAPIError(w, nodeAPIStatus(err), err)
			return
		}
		nodeAPIJSON(w, http.StatusOK, map[string]string{"node": a.n.ID()})
	})

	mux.HandleFunc("POST /detach", func(w http.ResponseWriter, r *http.Request) {
		var body nodeDetachBody
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			nodeAPIError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		st, err := a.Detach(body.Fence, body.Token, body.Device)
		if err != nil {
			nodeAPIError(w, nodeAPIStatus(err), err)
			return
		}
		nodeAPIJSON(w, http.StatusOK, nodeDetachResponse{Node: a.n.ID(), State: st})
	})

	return mux
}
