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

// serve answers one node-plane RPC from its wire form — the route
// (/heartbeat, /submit, /attach or /detach), the request's content type
// and its body bytes — with a status and the answer's bytes. It is
// the node's whole RPC surface: NodeAPIHandler puts it on HTTP, and the
// client's memory carrier calls it in process, so both carriers run
// the same decoders, checks and status codes. A 200 submit answer is
// the response frame (shared with the dedupe cache: callers must not
// modify it); every other answer is JSON, and every error a JSON
// {error} body.
//
// Submit takes only the binary frame (frame.go): any other content
// type answers 415 and a malformed frame 400, before the token is
// claimed or a device touched; a malformed attach or detach body
// answers 400 the same way. A stale fencing term answers 412
// (Precondition Failed) before any state is touched.
func (a *NodeAPI) serve(route, contentType string, body []byte) (int, []byte) {
	switch route {
	case "/heartbeat":
		// The body is optional: legacy probes post {}, fenced
		// coordinators post {fence}. Decode errors read as unfenced.
		var req nodeHeartbeatBody
		_ = json.Unmarshal(body, &req)
		n, err := a.Heartbeat(req.Fence)
		if err != nil {
			return nodeAPIError(nodeAPIStatus(err), err)
		}
		return nodeAPIJSON(http.StatusOK, nodeHeartbeatResponse{Node: a.n.ID(), Devices: n})

	case "/submit":
		if contentType != frameContentType {
			return nodeAPIError(http.StatusUnsupportedMediaType,
				fmt.Errorf("submit body has Content-Type %q, want %s", contentType, frameContentType))
		}
		f, err := decodeSubmitFrame(body)
		if err != nil {
			return nodeAPIError(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		_, frame, err := a.submit(f.Fence, f.Token, f.Requests)
		if err != nil {
			return nodeAPIError(nodeAPIStatus(err), err)
		}
		return http.StatusOK, frame

	case "/attach":
		var req nodeAttachBody
		if err := json.Unmarshal(body, &req); err != nil {
			return nodeAPIError(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		if err := a.Attach(req.Fence, req.Token, req.State); err != nil {
			return nodeAPIError(nodeAPIStatus(err), err)
		}
		return nodeAPIJSON(http.StatusOK, map[string]string{"node": a.n.ID()})

	case "/detach":
		var req nodeDetachBody
		if err := json.Unmarshal(body, &req); err != nil {
			return nodeAPIError(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		st, err := a.Detach(req.Fence, req.Token, req.Device)
		if err != nil {
			return nodeAPIError(nodeAPIStatus(err), err)
		}
		return nodeAPIJSON(http.StatusOK, nodeDetachResponse{Node: a.n.ID(), State: st})
	}
	return nodeAPIError(http.StatusNotFound, fmt.Errorf("no node route %q", route))
}

func nodeAPIJSON(status int, v any) (int, []byte) {
	b, err := json.Marshal(v)
	if err != nil {
		return nodeAPIError(http.StatusInternalServerError, fmt.Errorf("encoding answer: %w", err))
	}
	return status, append(b, '\n')
}

func nodeAPIError(status int, err error) (int, []byte) {
	b, _ := json.Marshal(nodeErrorResponse{Error: err.Error()})
	return status, append(b, '\n')
}

// NodeAPIHandler serves a NodeAPI over HTTP: a thin adapter that reads
// the body and hands it, with the path and Content-Type, to the same
// serve the memory carrier calls. The ssdcheckd daemon mounts it under
// /v1/node/ (strip the prefix before routing); tests and benchmarks
// mount it on httptest servers. Routes, all POST:
//
//	/heartbeat  {fence?}                 → {node, devices}
//	/submit     request frame            → response frame
//	/attach     {token, fence?, state}   → {node}
//	/detach     {token, fence?, device}  → {node, state}
func NodeAPIHandler(a *NodeAPI) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bp := getFrameBuf()
		defer putFrameBuf(bp)
		b, err := readBody((*bp)[:0], r.Body)
		*bp = b
		var status int
		var resp []byte
		switch {
		case r.Method != http.MethodPost:
			status, resp = nodeAPIError(http.StatusMethodNotAllowed, fmt.Errorf("%s %s: node routes take POST", r.Method, r.URL.Path))
		case err != nil:
			status, resp = nodeAPIError(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		default:
			status, resp = a.serve(r.URL.Path, r.Header.Get("Content-Type"), b)
		}
		ct := "application/json"
		if status == http.StatusOK && r.URL.Path == "/submit" {
			ct = frameContentType
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(status)
		_, _ = w.Write(resp)
	})
}
