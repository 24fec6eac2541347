// Package ssdcheck is a reproduction of "SSDcheck: Timely and Accurate
// Prediction of Irregular Behaviors in Black-Box SSDs" (MICRO 2018): a
// host-side framework that probes a black-box SSD with diagnosis code
// snippets, builds a per-device performance model of its write buffer
// and garbage collection, and predicts — per request, before submission
// — whether the next access will be normal- or high-latency.
//
// Because the paper's commodity SSDs and FPGA prototype are not
// reproducible hardware, the repository ships a full NAND-flash SSD
// simulator (page-level FTL, greedy GC, wear leveling, internal
// allocation/GC volumes, back/fore write buffers) on a deterministic
// virtual clock, with presets matching the paper's Table I. SSDcheck
// itself touches devices only through the black-box Device interface and
// runs unmodified against any implementation of it.
//
// This package is the public facade: it re-exports the pieces a
// downstream user needs — devices, diagnosis, prediction, the volume
// manager and the schedulers — from the internal packages that implement
// them. The package's Example functions are its walkthroughs, run and
// checked by go test; EXPERIMENTS.md has the paper-vs-measured
// evaluation.
package ssdcheck

import (
	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/cluster"
	"ssdcheck/internal/core"
	"ssdcheck/internal/ecvol"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/fleet"
	"ssdcheck/internal/host"
	"ssdcheck/internal/lvm"
	"ssdcheck/internal/nvm"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/sched"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
	"ssdcheck/internal/trace"
)

// Core request/device vocabulary.
type (
	// Time is an instant on the virtual clock (nanoseconds).
	Time = simclock.Time
	// Request is one block I/O request.
	Request = blockdev.Request
	// Device is the black-box device surface SSDcheck operates on.
	Device = blockdev.Device
	// TaggedDevice additionally exposes ground-truth causes —
	// evaluation only.
	TaggedDevice = blockdev.TaggedDevice
)

// Request directions.
const (
	Read  = blockdev.Read
	Write = blockdev.Write
)

// Simulated devices.
type (
	// SSD is a simulated NAND-flash SSD.
	SSD = ssd.Device
	// SSDConfig parameterizes a simulated SSD.
	SSDConfig = ssd.Config
)

// NewSSD builds a simulated SSD from a configuration.
func NewSSD(cfg SSDConfig) (*SSD, error) { return ssd.New(cfg) }

// Preset returns one of the paper's Table-I-style device presets
// ("A".."G").
func Preset(name string, seed uint64) (SSDConfig, error) { return ssd.Preset(name, seed) }

// PresetNames lists the available commodity presets.
var PresetNames = ssd.PresetNames

// Precondition purges and dirties a device to GC steady state (the SNIA
// practice the paper follows) and returns the virtual time afterwards.
func Precondition(dev TaggedDevice, seed uint64, factor float64, at Time) Time {
	return trace.Precondition(dev, seed, factor, at)
}

// Diagnosis (paper §III-B).
type (
	// Features is everything the diagnosis extracts from a device.
	Features = extract.Features
	// DiagnosisOpts tunes the diagnosis probes.
	DiagnosisOpts = extract.Opts
)

// Diagnose runs SSDcheck's diagnosis code snippets against a black-box
// device: latency thresholds, allocation-volume scan, GC-volume scan and
// write-buffer analysis. It returns the extracted features, the virtual
// time when diagnosis finished, and an error if the device is outside
// the model's coverage.
func Diagnose(dev Device, start Time, opts DiagnosisOpts) (*Features, Time, error) {
	return extract.Run(dev, start, opts)
}

// Prediction (paper §III-C).
type (
	// Predictor is the runtime framework: prediction engine, latency
	// monitor and calibrator.
	Predictor = core.Predictor
	// PredictorParams tunes the runtime framework.
	PredictorParams = core.Params
	// Prediction is the engine's per-request answer.
	Prediction = core.Prediction
	// AccuracyReport tallies NL/HL prediction accuracy.
	AccuracyReport = core.AccuracyReport
)

// NewPredictor constructs the runtime framework from extracted features.
func NewPredictor(f *Features, p PredictorParams) *Predictor {
	return core.NewPredictor(f, p)
}

// EvaluateAccuracy replays requests and scores the predictor against
// measured latency classes (the Fig. 11 methodology).
func EvaluateAccuracy(dev Device, pr *Predictor, reqs []Request, start Time) AccuracyReport {
	return core.Evaluate(dev, pr, reqs, start)
}

// Workload describes a synthetic block workload (paper Table II).
type Workload = trace.Spec

// The evaluation workloads.
var (
	TPCE    = trace.TPCE
	Homes   = trace.Homes
	Exch    = trace.Exch
	Build   = trace.Build
	RWMixed = trace.RWMixed
)

// GenerateWorkload materializes n requests of a workload for a device of
// the given capacity.
func GenerateWorkload(spec Workload, capacitySectors int64, seed uint64, n int) []Request {
	return trace.Generate(spec, capacitySectors, seed, n)
}

// Use case 1: volume managers (paper §IV-A).
type (
	// VolumeMapper remaps tenant LBAs onto a shared device.
	VolumeMapper = lvm.Mapper
	// TenantSpec describes one colocated workload.
	TenantSpec = lvm.TenantSpec
	// TenantResult is one tenant's measured outcome.
	TenantResult = lvm.TenantResult
)

// NewLinearLVM builds the conventional contiguous-split volume manager.
func NewLinearLVM(capacitySectors int64, volumes int) VolumeMapper {
	return lvm.NewLinear(capacitySectors, volumes)
}

// NewVALVM builds the paper's volume-aware LVM over the extracted
// internal volume-index bits.
func NewVALVM(capacitySectors int64, volumeBits []int) VolumeMapper {
	return lvm.NewVolumeAware(capacitySectors, volumeBits)
}

// RunMultiTenant colocates tenants on a device through a volume manager
// for a virtual-time window.
var RunMultiTenant = lvm.RunMultiTenant

// Scheduler is the host I/O scheduler contract (use case 2, paper
// §IV-B).
type Scheduler = host.Scheduler

// Baseline and prediction-aware schedulers.
func NewNoop() Scheduler            { return sched.NewNoop() }
func NewDeadline() Scheduler        { return sched.NewDeadline() }
func NewCFQ() Scheduler             { return sched.NewCFQ() }
func NewPAS(p *Predictor) Scheduler { return sched.NewPAS(p) }

// Drive runs an arrival stream through a scheduler and a device.
var Drive = host.Drive

// Fleet serving (beyond the paper): many devices, many predictors, one
// concurrent manager. See internal/fleet for the concurrency model and
// cmd/ssdcheckd for the HTTP daemon built on top of it.
type (
	// Fleet is the concurrent multi-device prediction service: N
	// device+predictor pairs sharded across a bounded worker pool.
	Fleet = fleet.Manager
	// FleetConfig parameterizes a fleet.
	FleetConfig = fleet.Config
	// FleetDeviceSpec describes one fleet member.
	FleetDeviceSpec = fleet.DeviceSpec
	// FleetRequest is one request addressed to a fleet device by ID.
	FleetRequest = fleet.Request
	// FleetResult is the fleet's per-request answer: the prediction
	// plus the observed outcome.
	FleetResult = fleet.Result
	// FleetDeviceSnapshot is a point-in-time per-device stats view.
	FleetDeviceSnapshot = fleet.DeviceSnapshot
	// FleetMetrics is the fleet-wide aggregate stats view.
	FleetMetrics = fleet.Metrics
)

// NewFleet builds and starts a fleet manager: every device is
// constructed, preconditioned and diagnosed (shard-parallel), and the
// worker goroutines begin serving. Close it when done.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// FleetPresetDevices builds n device specs cycling through preset names,
// with stable IDs and derived per-device seeds.
var FleetPresetDevices = fleet.PresetDevices

// FastDiagnosis returns reduced-strength diagnosis options for quick
// fleet startup in examples, tests and benchmarks.
var FastDiagnosis = fleet.FastDiagnosis

// Cluster mode (beyond the paper): several fleet nodes behind a
// coordinator with consistent-hash device placement, heartbeat-driven
// node health, failover and merged observability. See internal/cluster
// and cmd/ssdcheck-cluster for the HTTP daemon built on top of it.
type (
	// ClusterHarness is a deterministic in-process multi-node cluster.
	ClusterHarness = cluster.Harness
	// ClusterHarnessConfig parameterizes a harness.
	ClusterHarnessConfig = cluster.HarnessConfig
	// ClusterCoordinator is the control plane: placement ring, health
	// machines, failover, fan-out submit, merged metrics.
	ClusterCoordinator = cluster.Coordinator
	// ClusterPolicy tunes heartbeats, health thresholds and the ring.
	ClusterPolicy = cluster.Policy
	// ClusterNode is one member: a fleet manager with an identity and a
	// serving switch.
	ClusterNode = cluster.Node
	// ClusterResult is one request's outcome with node attribution.
	ClusterResult = cluster.Result

	// ClusterRPCPolicy bounds one RPC: deadline + retry schedule.
	ClusterRPCPolicy = cluster.RPCPolicy

	// NodeFaultPlan is a seeded set of node-level fault schedules
	// (heartbeat loss, partition, slow node, RPC drop/duplicate/
	// delay/timeout) for the harness's memory carrier.
	NodeFaultPlan = faults.NodePlan
	// NodeFaultSchedule arms one node-level fault window.
	NodeFaultSchedule = faults.NodeSchedule
)

// NodeFaultHeartbeatLoss drops a node's heartbeat responses for a
// window; submits still go through.
const NodeFaultHeartbeatLoss = faults.HeartbeatLoss

// NewClusterHarness stands up an in-process cluster: nodes join the
// ring, every device is diagnosed once in a bootstrap fleet, and each
// is placed on the node the ring names. Close it when done.
func NewClusterHarness(cfg ClusterHarnessConfig) (*ClusterHarness, error) {
	return cluster.NewHarness(cfg)
}

// NewClusterNode builds a cluster member from a fleet config (devices
// may be empty — they can arrive over attach RPCs).
var NewClusterNode = cluster.NewNode

// NewClusterRemoteNode names a member living in another process,
// reachable at a base URL.
var NewClusterRemoteNode = cluster.NewRemoteNode

// NewClusterHTTPTransport builds the networked transport for real
// ssdcheckd members.
var NewClusterHTTPTransport = cluster.NewHTTPTransport

// NewClusterNodeAPI wraps a node in the token-deduped RPC surface.
var NewClusterNodeAPI = cluster.NewNodeAPI

// ClusterNodeAPIHandler mounts a NodeAPI as an http.Handler (ssdcheckd
// serves it under /v1/node/).
var ClusterNodeAPIHandler = cluster.NodeAPIHandler

// NewClusterCoordinator builds a coordinator over an explicit RPC
// client (no harness), its log kept in memory; a nil client is the
// memory carrier's with the default policy.
func NewClusterCoordinator(pol ClusterPolicy, tr *cluster.HTTPTransport, reg *obs.Registry) (*ClusterCoordinator, error) {
	return cluster.OpenCoordinator(pol, tr, reg, "", nil)
}

// Fault injection and fleet resilience (beyond the paper): a seedable
// fault injector that wraps any Device, and the fleet's health state
// machine, retry policy and recovery probes built to survive it. See
// internal/faults, the "Failure model" section of DESIGN.md, and
// ExampleFleet_HealthLog for a runnable walkthrough.
type (
	// FaultConfig is a seed plus a set of fault schedules.
	FaultConfig = faults.Config
	// FaultSchedule arms one fault: what kind, when (request number or
	// probability), and how hard.
	FaultSchedule = faults.Schedule

	// HealthPolicy tunes the health state machine and recovery probes.
	HealthPolicy = fleet.HealthPolicy

	// FeatureShift describes a mid-run change to a device's extractable
	// behavior — the black-box analog of a firmware update that
	// silently invalidates a diagnosed model.
	FeatureShift = blockdev.FeatureShift
	// ModelPolicy tunes the drift watchdog, fallback and re-diagnosis.
	ModelPolicy = fleet.ModelPolicy
)

// The injectable fault classes.
const (
	FaultTransient    = faults.Transient
	FaultLatencyStorm = faults.LatencyStorm
	FaultFailStop     = faults.FailStop
	FaultFeatureShift = faults.FeatureShift
)

// ErrDeviceQuarantined rejects requests to an out-of-service device;
// match it with errors.Is.
var ErrDeviceQuarantined = fleet.ErrDeviceQuarantined

// Observability (beyond the paper): a lock-cheap metrics registry with
// Prometheus text exposition and a deterministic per-request span
// tracer. Attach a Registry and Recorder to a FleetConfig to instrument
// a fleet; cmd/ssdcheckd serves the results at /metrics and /v1/traces.
// See internal/obs and ExampleObserver.
type (
	// MetricsRegistry holds named counters, gauges and latency
	// histograms and renders Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// MetricsLabel is one name="value" pair on a metric series.
	MetricsLabel = obs.Label
	// LatencySnapshot is a point-in-time histogram copy for quantile
	// queries and merging.
	LatencySnapshot = obs.HistogramSnapshot
	// Observer bundles a registry and a tracer into a Recorder.
	Observer = obs.Observer
	// Tracer samples per-request span traces deterministically.
	Tracer = obs.Tracer
	// RequestTrace is the recorded life of one sampled request.
	RequestTrace = obs.RequestTrace
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a tracer sampling the given fraction of requests
// (deterministically, from the seed) into bounded per-device rings.
func NewTracer(seed uint64, rate float64, perDevice int) *Tracer {
	return obs.NewTracer(seed, rate, perDevice)
}

// WriteChromeTrace renders traces in the Chrome trace_event JSON format
// (chrome://tracing, Perfetto).
var WriteChromeTrace = obs.WriteChromeTrace

// Hybrid PAS with an NVM tier (paper §IV-B).
type (
	// HybridConfig parameterizes a two-tier run.
	HybridConfig = nvm.Config
	// HybridResult is a two-tier run's outcome.
	HybridResult = nvm.Result
)

// Hybrid policies.
const (
	HybridBaseline = nvm.Baseline
	HybridPAS      = nvm.HybridPAS
)

// RunHybrid drives a request stream through the NVM+SSD stack.
var RunHybrid = nvm.Run

// CalibrateHybrid derives a hybrid configuration whose pacing and drain
// rate match the device, as the Fig. 15 experiments require.
var CalibrateHybrid = nvm.CalibratedConfig

// Prediction-aware erasure-coded volume (beyond the paper): an m+k
// Reed-Solomon stripe over fleet devices that steers reads away from
// predicted-HL members (reconstruct-over-wait) and defers parity
// writes into the slow windows the predictor announces. See
// internal/ecvol, DESIGN.md §8 and ExampleNewECVolume.
type (
	// ECVolume is the striped, prediction-aware volume.
	ECVolume = ecvol.Volume
	// ECVolumeConfig parameterizes geometry, placement seed and the
	// parity-deferral budget.
	ECVolumeConfig = ecvol.Config
	// ECReadResult is one served chunk read (value, mode, latency).
	ECReadResult = ecvol.ReadResult
	// ECWriteResult is one acknowledged chunk write.
	ECWriteResult = ecvol.WriteResult
)

// The read-service modes.
const (
	ECReadDirect        = ecvol.Direct
	ECReadReconstructed = ecvol.Reconstructed
)

// NewECVolume builds an erasure-coded volume over fl's devices.
func NewECVolume(fl *Fleet, cfg ECVolumeConfig) (*ECVolume, error) { return ecvol.New(fl, cfg) }

// ECFingerprint is the deterministic chunk payload model: the value a
// verified read of (seed, chunk, version) must return.
var ECFingerprint = ecvol.Fingerprint
