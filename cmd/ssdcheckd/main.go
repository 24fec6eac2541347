// Command ssdcheckd is the fleet prediction daemon: it stands up N
// simulated devices with one SSDcheck predictor each (sharded across a
// worker pool; see internal/fleet) and serves predictions and metrics
// over a JSON HTTP API.
//
// Endpoints:
//
//	POST /v1/submit                        {"requests":[{"device":"ssd-00-A","op":"write","lba":4096,"sectors":8}]}
//	GET  /v1/devices                       per-device stats snapshots
//	GET  /v1/devices/{id}                  one device's stats and model state
//	GET  /v1/devices/{id}/health           one device's health state and transition log
//	GET  /v1/devices/{id}/model            one device's model-health report and transition log
//	POST /v1/devices/{id}/rediagnose       force an online re-diagnosis and hot-swap
//	POST /v1/volumes                       create an erasure-coded volume over fleet devices
//	GET  /v1/volumes                       list volumes with stats
//	GET  /v1/volumes/{id}                  one volume's config and stats
//	POST /v1/volumes/{id}/submit           {"ops":[{"op":"read","chunk":3},{"op":"write","chunk":5}]}
//	GET  /v1/metrics                       fleet-wide aggregate (JSON)
//	GET  /v1/traces                        sampled request traces (?device=ID, ?format=chrome)
//	GET  /metrics                          Prometheus text exposition
//	GET  /v1/version                       build identity, node ID and uptime
//	GET  /debug/pprof/                     runtime profiling
//	GET  /healthz                          liveness, degraded-aware
//	POST /v1/node/{heartbeat,submit,attach,detach}  cluster node RPC plane (idempotency-token protected)
//
// Submit failures are per-request: a quarantined or failed device marks
// only its own entries' "error" field, and the rest of the batch
// proceeds. /healthz reports "degraded" (200) while some devices are
// quarantined and "unhealthy" (503) when all are.
//
// Each device also carries a model-health lifecycle (calibrated →
// drifting → fallback → rediagnosing): when a device's extracted model
// stops matching its behavior, the fleet serves conservative always-NL
// predictions (results flagged "fallback") while a budgeted background
// re-diagnosis rebuilds the model and hot-swaps it.
//
// Usage:
//
//	ssdcheckd -addr :8080 -devices 16 -presets A,B,C,D,E,F,G,H -shards 4
//	ssdcheckd -devices 4 -features ./diagnoses   # preload saved diagnoses
//	ssdcheckd -devices 4 -probe-interval 1s      # faster quarantine re-probing
//	ssdcheckd -devices 4 -trace-sample 0.01      # trace 1% of requests
//
// -trace-sample enables the per-request span tracer: the given
// fraction of requests (deterministically chosen from the seed) record
// queue/route/predict/submit/calibrate spans on the virtual clock,
// retained in bounded per-device rings (-trace-buffer) and served at
// /v1/traces as JSON or Chrome trace_event format.
//
// With -features DIR, a file DIR/<deviceID>.json saved via the
// diagnosis persistence format (extract.Features.Save) is loaded at
// startup and the device skips its online diagnosis probes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ssdcheck/cmd/internal/daemon"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	devices := flag.Int("devices", 16, "number of simulated devices")
	presets := flag.String("presets", "A,B,C,D,E,F,G,H", "comma-separated preset cycle")
	shards := flag.Int("shards", 0, "worker shards (0 = one per core, capped at device count)")
	seed := flag.Uint64("seed", 42, "base seed; per-device seeds derive from it")
	featuresDir := flag.String("features", "", "directory of persisted diagnoses (<deviceID>.json)")
	fastDiag := flag.Bool("fastdiag", false, "use reduced-strength startup diagnosis probes")
	probeInterval := flag.Duration("probe-interval", 5*time.Second, "background recovery-probe period for quarantined devices (0 = rejection-triggered only)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests to trace, 0..1 (0 = tracing off)")
	traceBuffer := flag.Int("trace-buffer", 256, "retained traces per device")
	nodeID := flag.String("node-id", "", "node identity reported on /v1/version (cluster members set this)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ssdcheckd: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	if err := run(*addr, *devices, *presets, *shards, *seed, *featuresDir, *fastDiag, *probeInterval, *traceSample, *traceBuffer, *nodeID); err != nil {
		fmt.Fprintln(os.Stderr, "ssdcheckd:", err)
		os.Exit(1)
	}
}

func run(addr string, devices int, presets string, shards int, seed uint64, featuresDir string, fastDiag bool, probeInterval time.Duration, traceSample float64, traceBuffer int, nodeID string) error {
	if devices < 0 {
		return fmt.Errorf("-devices %d is negative", devices)
	}
	// -devices 0 starts an empty fleet: a cluster member whose devices
	// arrive over /v1/node/attach from a coordinator's bootstrap
	// placement or a failover migration.
	if traceSample < 0 || traceSample > 1 {
		return fmt.Errorf("-trace-sample %v outside [0,1]", traceSample)
	}

	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if traceSample > 0 {
		tracer = obs.NewTracer(seed, traceSample, traceBuffer)
	}

	cfg := fleet.Config{
		Devices:    fleet.PresetDevices(devices, daemon.Presets(presets), seed),
		Shards:     shards,
		Registry:   reg,
		Recorder:   obs.Observer{Reg: reg, Tr: tracer},
		AllowEmpty: devices == 0,
	}
	cfg.Health.ProbeInterval = probeInterval
	if fastDiag {
		cfg.Diagnosis = fleet.FastDiagnosis()
	}
	if featuresDir != "" {
		if err := loadFeatures(cfg.Devices, featuresDir); err != nil {
			return err
		}
	}

	log.Printf("diagnosing %d devices across %d shards...", devices, max(shards, 1))
	start := time.Now()
	m, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	log.Printf("fleet up in %v: devices=%s", time.Since(start).Round(time.Millisecond),
		strings.Join(m.DeviceIDs(), ","))

	// Graceful shutdown: stop accepting HTTP, finish in-flight
	// handlers, then drain the shard queues.
	if err := daemon.Serve(context.Background(), addr, newServer(m, tracer, nodeID), nil, 0); err != nil {
		return err
	}
	m.Close()
	log.Printf("fleet drained, bye")
	return nil
}

// loadFeatures attaches persisted diagnoses to matching device specs. A
// missing file is fine (the device diagnoses online); a corrupt one is
// a startup error.
func loadFeatures(specs []fleet.DeviceSpec, dir string) error {
	for i := range specs {
		path := filepath.Join(dir, specs[i].ID+".json")
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		feats, device, err := extract.LoadFeatures(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		specs[i].Features = feats
		log.Printf("loaded diagnosis for %s (%s)", specs[i].ID, device)
	}
	return nil
}
