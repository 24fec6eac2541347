// Package daemon is the HTTP scaffold shared by the ssdcheckd and
// ssdcheck-cluster commands: the JSON response path, the submit wire
// form, trace rendering, pprof, and the signal-aware serve loop.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// WriteJSON is the single JSON response path: every handler goes
// through it (or WriteError) so the Content-Type header is set
// consistently across both daemons' API surfaces.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers status with a {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// SubmitRequest is the wire form of one request: the op travels as its
// conventional name ("read", "write", "trim", or r/w/t).
type SubmitRequest struct {
	Device  string `json:"device"`
	Op      string `json:"op"`
	LBA     int64  `json:"lba"`
	Sectors int    `json:"sectors"`
}

// SubmitBody is the POST /v1/submit request body.
type SubmitBody struct {
	Requests []SubmitRequest `json:"requests"`
}

// parseOp maps an op name to its block-device op.
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

// DecodeSubmit reads a SubmitBody from r and appends its requests to
// dst, so a caller can decode into a reused slice. Every error is the
// client's: a malformed body, an empty batch or an unknown op.
func DecodeSubmit(r io.Reader, dst []fleet.Request) ([]fleet.Request, error) {
	var body SubmitBody
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		return dst, fmt.Errorf("bad request body: %w", err)
	}
	if len(body.Requests) == 0 {
		return dst, errors.New("empty batch")
	}
	for i, sr := range body.Requests {
		op, err := parseOp(sr.Op)
		if err != nil {
			return dst, fmt.Errorf("request %d: %w", i, err)
		}
		dst = append(dst, fleet.Request{DeviceID: sr.Device, Op: op, LBA: sr.LBA, Sectors: sr.Sectors})
	}
	return dst, nil
}

// WriteTraces answers a /v1/traces request: traces (which it filters
// in place) narrowed to the ?device= and ?node= query values, as a
// {"traces": [...]} document or, with ?format=chrome, in Chrome
// trace-event form.
func WriteTraces(w http.ResponseWriter, r *http.Request, traces []obs.RequestTrace) {
	q := r.URL.Query()
	dev, node := q.Get("device"), q.Get("node")
	kept := traces[:0]
	for _, rt := range traces {
		if (dev == "" || rt.Device == dev) && (node == "" || rt.Node == node) {
			kept = append(kept, rt)
		}
	}
	if kept == nil {
		kept = []obs.RequestTrace{}
	}
	if q.Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, kept)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"traces": kept})
}

// MountPprof serves CPU/heap/goroutine profiling of the live daemon
// under /debug/pprof/, wired explicitly because the daemons' muxes are
// not http.DefaultServeMux.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Serve runs handler on addr until ctx ends or the process receives
// SIGINT or SIGTERM, then shuts the server down gracefully: it stops
// accepting, lets in-flight handlers finish, and returns nil, leaving
// the caller to drain what the handlers drove. With interval > 0, tick
// also runs on a wall-clock ticker until shutdown or its first error;
// Serve returns only after the ticker has stopped, so the caller may
// close what tick drives. A listener failure is returned as is.
func Serve(ctx context.Context, addr string, handler http.Handler, tick func() error, interval time.Duration) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	if interval > 0 {
		done := make(chan struct{})
		defer func() { stop(); <-done }()
		go func() {
			defer close(done)
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := tick(); err != nil {
						log.Printf("ticker stopped: %v", err)
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	srv := &http.Server{Addr: addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Presets splits a comma-separated preset cycle, dropping blanks.
func Presets(s string) []string {
	var cycle []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cycle = append(cycle, p)
		}
	}
	return cycle
}
