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
// them. See the examples directory for runnable walkthroughs and
// EXPERIMENTS.md for the paper-vs-measured evaluation.
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
	// Op is a block request direction.
	Op = blockdev.Op
	// Request is one block I/O request.
	Request = blockdev.Request
	// Device is the black-box device surface SSDcheck operates on.
	Device = blockdev.Device
	// TaggedDevice additionally exposes ground-truth causes —
	// evaluation only.
	TaggedDevice = blockdev.TaggedDevice
	// Completion is a finished request with its timing.
	Completion = blockdev.Completion
	// Cause labels why a request was slow (ground truth).
	Cause = blockdev.Cause
)

// Request directions.
const (
	Read  = blockdev.Read
	Write = blockdev.Write
	Trim  = blockdev.Trim
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

// LoadFeatures reads a diagnosis saved with Features.Save, so a device
// model can be diagnosed once and reused.
var LoadFeatures = extract.LoadFeatures

// Workloads (paper Table II).
type (
	// Workload describes a synthetic block workload.
	Workload = trace.Spec
	// WorkloadGenerator streams a workload's requests.
	WorkloadGenerator = trace.Generator
)

// The evaluation workloads.
var (
	TPCE       = trace.TPCE
	Homes      = trace.Homes
	Web        = trace.Web
	Exch       = trace.Exch
	Live       = trace.Live
	Build      = trace.Build
	RWMixed    = trace.RWMixed
	WriteBurst = trace.WriteBurst
	Workloads  = trace.Workloads
)

// GenerateWorkload materializes n requests of a workload for a device of
// the given capacity.
func GenerateWorkload(spec Workload, capacitySectors int64, seed uint64, n int) []Request {
	return trace.Generate(spec, capacitySectors, seed, n)
}

// Trace file I/O: plain-text block traces ("R|W|T lba sectors" lines).
var (
	ReadTraceFile   = trace.ReadRequests
	WriteTraceFile  = trace.WriteRequests
	ClampToCapacity = trace.ClampToCapacity
)

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

// Use case 2: schedulers (paper §IV-B).
type (
	// Scheduler is the host I/O scheduler contract.
	Scheduler = host.Scheduler
	// QueueItem is a queued request as schedulers see it.
	QueueItem = host.Item
	// HostRecord is one request's life through the host queue.
	HostRecord = host.Record
)

// Baseline and prediction-aware schedulers.
func NewNoop() Scheduler                       { return sched.NewNoop() }
func NewDeadline() Scheduler                   { return sched.NewDeadline() }
func NewCFQ() Scheduler                        { return sched.NewCFQ() }
func NewPAS(p *Predictor) Scheduler            { return sched.NewPAS(p) }
func NewIdealPAS(o sched.OracleFunc) Scheduler { return sched.NewIdealPAS(o) }

// NewFIOS builds the classic FIOS-style fair scheduler (read-after-write
// assumed slow); NewFIOSWithPredictor lifts that assumption with
// SSDcheck predictions (paper §VII).
func NewFIOS() Scheduler                          { return sched.NewFIOS() }
func NewFIOSWithPredictor(p *Predictor) Scheduler { return sched.NewFIOSWithPredictor(p) }

// Drive runs an arrival stream through a scheduler and a device.
var Drive = host.Drive

// DriveClosedLoop keeps a fixed queue depth outstanding.
var DriveClosedLoop = host.DriveClosedLoop

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
	// ClusterMetrics is the merged cluster-wide aggregate view.
	ClusterMetrics = cluster.Metrics
	// ClusterRing is the consistent-hash placement ring.
	ClusterRing = cluster.Ring

	// ClusterHTTPTransport is the node-plane RPC client over HTTP, for
	// real ssdcheckd processes' /v1/node/* API: per-attempt deadlines,
	// bounded retries, idempotency tokens with an incarnation. A
	// coordinator reaches its members only through this one client
	// type, over HTTP or the memory carrier.
	ClusterHTTPTransport = cluster.HTTPTransport
	// ClusterLoopbackTransport is the same client type over the memory
	// carrier: the same request bytes, handed to each in-process node's
	// own NodeAPI on virtual time, with injectable RPC faults. Every
	// harness runs it.
	ClusterLoopbackTransport = cluster.LoopbackTransport
	// ClusterRPCPolicy bounds one RPC: deadline + retry schedule.
	ClusterRPCPolicy = cluster.RPCPolicy
	// ClusterRPCStats is one node's transport accounting.
	ClusterRPCStats = cluster.RPCStats
	// ClusterNodeAPI is the node-side RPC surface with exactly-once
	// token dedupe; ssdcheckd mounts it under /v1/node/*.
	ClusterNodeAPI = cluster.NodeAPI
	// ClusterBreakerState is a node's circuit-breaker position.
	ClusterBreakerState = cluster.BreakerState
	// ClusterBreakerTransition is one seq-stamped breaker edge.
	ClusterBreakerTransition = cluster.BreakerTransition
	// ClusterNodeResolver rebuilds node handles while a coordinator
	// replays its log.
	ClusterNodeResolver = cluster.NodeResolver
	// ClusterGroup is a replicated coordinator group: a quorum-
	// acknowledged placement log, tick-clock leases, deterministic
	// elections and term-fenced node RPCs (see internal/cluster
	// replica.go / group.go).
	ClusterGroup = cluster.Group
	// ClusterGroupConfig parameterizes a replica group.
	ClusterGroupConfig = cluster.GroupConfig
	// ClusterGroupPolicy tunes leases and election timeouts, in
	// heartbeat rounds.
	ClusterGroupPolicy = cluster.GroupPolicy
	// ClusterGroupStatus is the group's observable state: term, leader,
	// quorum size, per-replica log positions.
	ClusterGroupStatus = cluster.GroupStatus
	// ClusterReplicaStatus is one replica's view.
	ClusterReplicaStatus = cluster.ReplicaStatus
	// ClusterFencingToken stamps node-plane RPCs with (term, leader) so
	// a superseded coordinator cannot drive the fleet.
	ClusterFencingToken = cluster.FencingToken
	// FleetDeviceState is a device's exported wire state — what
	// migrates between nodes on detach/attach.
	FleetDeviceState = fleet.DeviceState

	// NodeFaultPlan is a seeded set of node-level fault schedules
	// (heartbeat loss, partition, slow node, RPC drop/duplicate/
	// delay/timeout) for the harness's memory carrier.
	NodeFaultPlan = faults.NodePlan
	// NodeFaultSchedule arms one node-level fault window.
	NodeFaultSchedule = faults.NodeSchedule
)

// The injectable node-level fault classes.
const (
	NodeFaultHeartbeatLoss = faults.HeartbeatLoss
	NodeFaultPartition     = faults.Partition
	NodeFaultSlowNode      = faults.SlowNode
	NodeFaultRPCDrop       = faults.RPCDrop
	NodeFaultRPCDuplicate  = faults.RPCDuplicate
	NodeFaultRPCDelay      = faults.RPCDelay
	NodeFaultRPCTimeout    = faults.RPCTimeout
)

// Circuit-breaker states of a cluster member.
const (
	ClusterBreakerClosed   = cluster.BreakerClosed
	ClusterBreakerOpen     = cluster.BreakerOpen
	ClusterBreakerHalfOpen = cluster.BreakerHalfOpen
)

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

// NewClusterRing builds the consistent-hash placement ring; placement
// is a pure function of (seed, membership, devices).
var NewClusterRing = cluster.NewRing

// NewClusterHTTPTransport builds the networked transport for real
// ssdcheckd members.
var NewClusterHTTPTransport = cluster.NewHTTPTransport

// NewClusterLoopbackTransport builds the RPC client over the memory
// carrier, the one every harness runs.
var NewClusterLoopbackTransport = cluster.NewLoopbackTransport

// NewClusterNodeAPI wraps a node in the token-deduped RPC surface.
var NewClusterNodeAPI = cluster.NewNodeAPI

// ClusterNodeAPIHandler mounts a NodeAPI as an http.Handler (ssdcheckd
// serves it under /v1/node/).
var ClusterNodeAPIHandler = cluster.NodeAPIHandler

// NewClusterCoordinator builds a coordinator over an explicit RPC
// client (no harness, no log); a nil client is the memory carrier's
// with the default policy.
var NewClusterCoordinator = cluster.NewCoordinator

// RecoverClusterCoordinator opens (or creates) a durable coordinator
// on a one-replica log directory (log.jsonl, meta.json, snapshot.json,
// compacted every 256 decisions): an existing log restores its
// snapshot and replays the entries after it, so the coordinator
// resumes exactly where the dead one stopped.
var RecoverClusterCoordinator = cluster.RecoverCoordinator

// NewClusterGroup stands up a replicated coordinator group: replicas
// share a quorum-acknowledged log, the leader holds a tick-clock
// lease, failover is a deterministic election, and superseded leaders
// are fenced off the node plane by term.
func NewClusterGroup(cfg ClusterGroupConfig) (*ClusterGroup, error) {
	return cluster.NewGroup(cfg)
}

// The leader-chaos fault classes for the replica group harness.
const (
	NodeFaultLeaderCrash     = faults.LeaderCrash
	NodeFaultLeaderPartition = faults.LeaderPartition
	NodeFaultDuelingLeader   = faults.DuelingLeader
)

// Fault injection and fleet resilience (beyond the paper): a seedable
// fault injector that wraps any Device, and the fleet's health state
// machine, retry policy and recovery probes built to survive it. See
// internal/faults, the "Failure model" section of DESIGN.md, and
// examples/faults for a runnable walkthrough.
type (
	// FaultInjector wraps a device and injects faults per a
	// deterministic, seedable schedule.
	FaultInjector = faults.Injector
	// FaultConfig is a seed plus a set of fault schedules.
	FaultConfig = faults.Config
	// FaultSchedule arms one fault: what kind, when (request number or
	// probability), and how hard.
	FaultSchedule = faults.Schedule
	// FaultKind enumerates the injectable fault classes.
	FaultKind = faults.Kind
	// FaultStats counts what an injector actually did.
	FaultStats = faults.Stats

	// DeviceHealth is a fleet device's resilience state.
	DeviceHealth = fleet.Health
	// HealthTransition is one logged edge of the health state machine.
	HealthTransition = fleet.HealthTransition
	// HealthReport is the detailed per-device resilience view.
	HealthReport = fleet.HealthReport
	// RetryPolicy bounds transient-error retries (deterministic
	// backoff + jitter on the virtual clock).
	RetryPolicy = fleet.RetryPolicy
	// HealthPolicy tunes the health state machine and recovery probes.
	HealthPolicy = fleet.HealthPolicy

	// FeatureShift describes a mid-run change to a device's extractable
	// behavior — the black-box analog of a firmware update that
	// silently invalidates a diagnosed model.
	FeatureShift = blockdev.FeatureShift
	// ModelHealth is a fleet device's model-lifecycle state.
	ModelHealth = fleet.ModelHealth
	// ModelTransition is one logged edge of the model-health machine.
	ModelTransition = fleet.ModelTransition
	// ModelReport is the detailed per-device model-health view.
	ModelReport = fleet.ModelReport
	// ModelPolicy tunes the drift watchdog, fallback and re-diagnosis.
	ModelPolicy = fleet.ModelPolicy
)

// The injectable fault classes.
const (
	FaultTransient    = faults.Transient
	FaultLatencyStorm = faults.LatencyStorm
	FaultStuckBusy    = faults.StuckBusy
	FaultFailStop     = faults.FailStop
	FaultDrift        = faults.Drift
	FaultFeatureShift = faults.FeatureShift
)

// Health states of a fleet device.
const (
	DeviceHealthy     = fleet.Healthy
	DeviceDegraded    = fleet.Degraded
	DeviceQuarantined = fleet.Quarantined
	DeviceRecovering  = fleet.Recovering
)

// Model-health states of a fleet device's predictor (calibrated →
// drifting → fallback → rediagnosing; re-diagnosis hot-swaps back to
// calibrated).
const (
	ModelCalibrated   = fleet.ModelCalibrated
	ModelDrifting     = fleet.ModelDrifting
	ModelFallback     = fleet.ModelFallback
	ModelRediagnosing = fleet.ModelRediagnosing
)

// Typed failure sentinels, errors.Is-compatible.
var (
	// ErrTransient marks a retryable I/O failure.
	ErrTransient = blockdev.ErrTransient
	// ErrDeviceFailed marks a permanent (fail-stop) device failure.
	ErrDeviceFailed = blockdev.ErrDeviceFailed
	// ErrDeviceQuarantined rejects requests to an out-of-service device.
	ErrDeviceQuarantined = fleet.ErrDeviceQuarantined
	// ErrUnknownDevice rejects requests to an ID the fleet doesn't own.
	ErrUnknownDevice = fleet.ErrUnknownDevice
	// ErrFleetClosed rejects batches submitted after Close.
	ErrFleetClosed = fleet.ErrManagerClosed
)

// NewFaultInjector wraps a device in a fault injector. The injector is
// armed from the start; fleets built with FleetDeviceSpec.Faults
// instead arm it only after preconditioning and diagnosis.
func NewFaultInjector(dev Device, cfg FaultConfig) (*FaultInjector, error) {
	return faults.New(dev, cfg)
}

// Observability (beyond the paper): a lock-cheap metrics registry with
// Prometheus text exposition and a deterministic per-request span
// tracer. Attach a Registry and Recorder to a FleetConfig to instrument
// a fleet; cmd/ssdcheckd serves the results at /metrics and /v1/traces.
// See internal/obs and examples/observability.
type (
	// MetricsRegistry holds named counters, gauges and latency
	// histograms and renders Prometheus text exposition.
	MetricsRegistry = obs.Registry
	// MetricsLabel is one name="value" pair on a metric series.
	MetricsLabel = obs.Label
	// LatencyHistogram is a fixed-memory log-bucketed histogram.
	LatencyHistogram = obs.Histogram
	// LatencySnapshot is a point-in-time histogram copy for quantile
	// queries and merging.
	LatencySnapshot = obs.HistogramSnapshot
	// Recorder is the narrow instrumentation surface fleet, scheduler
	// and predictor code records into.
	Recorder = obs.Recorder
	// Observer bundles a registry and a tracer into a Recorder.
	Observer = obs.Observer
	// Tracer samples per-request span traces deterministically.
	Tracer = obs.Tracer
	// RequestTrace is the recorded life of one sampled request.
	RequestTrace = obs.RequestTrace
	// TraceSpan is one named stage of a traced request.
	TraceSpan = obs.Span
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a tracer sampling the given fraction of requests
// (deterministically, from the seed) into bounded per-device rings.
func NewTracer(seed uint64, rate float64, perDevice int) *Tracer {
	return obs.NewTracer(seed, rate, perDevice)
}

// NopRecorder returns the recorder that records nothing at zero cost.
func NopRecorder() Recorder { return obs.Nop() }

// WriteChromeTrace renders traces in the Chrome trace_event JSON format
// (chrome://tracing, Perfetto).
var WriteChromeTrace = obs.WriteChromeTrace

// Hybrid PAS with an NVM tier (paper §IV-B).
type (
	// NVMTier models the fast non-volatile memory tier.
	NVMTier = nvm.Tier
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
// internal/ecvol, DESIGN.md §8 and examples/ecvol.
type (
	// ECVolume is the striped, prediction-aware volume.
	ECVolume = ecvol.Volume
	// ECVolumeConfig parameterizes geometry, placement seed and the
	// parity-deferral budget.
	ECVolumeConfig = ecvol.Config
	// ECVolumeStats is a volume's cumulative counter snapshot.
	ECVolumeStats = ecvol.Stats
	// ECReadResult is one served chunk read (value, mode, latency).
	ECReadResult = ecvol.ReadResult
	// ECWriteResult is one acknowledged chunk write.
	ECWriteResult = ecvol.WriteResult
	// ECReadMode says how a read was served: direct, steered or
	// reconstructed.
	ECReadMode = ecvol.ReadMode
	// FleetSteeringSnapshot is the read-only per-device prediction and
	// health view the volume (and any other steering layer) consumes.
	FleetSteeringSnapshot = fleet.SteeringSnapshot
)

// The read-service modes.
const (
	ECReadDirect        = ecvol.Direct
	ECReadSteered       = ecvol.Steered
	ECReadReconstructed = ecvol.Reconstructed
)

// Erasure-volume failure sentinels.
var (
	// ErrECStripeLost reports fewer readable shards than data shards.
	ErrECStripeLost = ecvol.ErrStripeLost
	// ErrECOutOfRange rejects chunk indexes beyond the volume.
	ErrECOutOfRange = ecvol.ErrOutOfRange
)

// NewECVolume builds an erasure-coded volume over fl's devices.
func NewECVolume(fl *Fleet, cfg ECVolumeConfig) (*ECVolume, error) { return ecvol.New(fl, cfg) }

// ECFingerprint is the deterministic chunk payload model: the value a
// verified read of (seed, chunk, version) must return.
var ECFingerprint = ecvol.Fingerprint
