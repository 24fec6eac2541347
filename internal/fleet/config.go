// Package fleet is the concurrent, multi-device layer of the
// reproduction: a manager that owns many simulated SSDs with one
// SSDcheck predictor each, shards them across a bounded pool of worker
// goroutines, and serves per-request predictions plus streaming fleet
// metrics. It is the scale-out counterpart of the strictly sequential
// single-device pipeline in internal/core — hyperscale operators run
// SSDcheck-style prediction across thousands of drives at once, and
// this package is the entry point for that deployment shape.
//
// Concurrency model: neither the simulator (internal/ssd) nor the
// predictor (internal/core) is safe for concurrent use, and the fleet
// never needs them to be. Every device is owned by exactly one shard,
// each shard is one goroutine, and all device/predictor state is
// touched only from that goroutine. Requests reach a shard through its
// channel; results travel back through per-batch synchronization. The
// only shared mutable state is the per-device stats block, which sits
// behind a mutex so metrics endpoints can read while shards write.
//
// Determinism: every device runs on its own virtual clock and every
// random decision (simulator noise, diagnosis probes, preconditioning)
// derives from the device's seed. Per-device request streams therefore
// produce byte-identical per-device stats regardless of shard count,
// scheduling order, or wall-clock behavior — fleet runs are exactly
// reproducible, including under the race detector.
package fleet

import (
	"fmt"
	"runtime"
	"time"

	"ssdcheck/internal/core"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
)

// DeviceSpec describes one member of the fleet.
type DeviceSpec struct {
	// ID is the fleet-unique device identifier ("ssd-00", ...).
	ID string

	// Preset names the simulated device configuration ("A".."H", "X").
	// Ignored when Config is set.
	Preset string

	// Config, when non-nil, is an explicit simulator configuration that
	// overrides Preset.
	Config *ssd.Config

	// Seed drives everything random about this device: the simulator's
	// internal noise, preconditioning, and the diagnosis probes. Two
	// specs with equal configuration and seed behave identically.
	Seed uint64

	// Features, when non-nil, is a previously extracted diagnosis
	// (e.g. loaded from a file saved with extract.Features.Save); the
	// manager then skips probing the device at startup.
	Features *extract.Features

	// Params tunes this device's predictor; the zero value takes the
	// standard defaults.
	Params core.Params

	// Shard is a 1-based shard pin; 0 selects automatic round-robin
	// assignment. Pinning matters only for load placement — per-device
	// results are identical either way.
	Shard int

	// Faults, when non-nil, wraps the device in a fault injector with
	// this configuration (see internal/faults). The injector is armed
	// only after preconditioning and diagnosis finish, so schedules
	// count serving-traffic requests.
	Faults *faults.Config
}

// RetryPolicy bounds how the fleet retries requests that fail with a
// transient error. Backoff runs on the device's virtual clock with
// deterministic seeded jitter, so retry behavior is exactly
// reproducible.
type RetryPolicy struct {
	// MaxRetries is the retry budget per request beyond the first
	// attempt. 0 defaults to 3; negative disables retries.
	MaxRetries int
}

// WithDefaults fills zero fields with the standard defaults. Exported
// so other layers reusing the retry shape — the cluster's RPC
// transports back off with the same policy — normalize identically.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	return p
}

// The retry backoff schedule, on the virtual clock.
const (
	// retryBackoff is the delay before the first retry; each further
	// retry doubles it.
	retryBackoff = 200 * time.Microsecond
	// retryMaxBackoff caps the doubled delays.
	retryMaxBackoff = 5 * time.Millisecond
	// retryJitter is the fraction of each delay randomized away: full
	// jitter over [1-retryJitter, 1]·delay.
	retryJitter = 0.5
)

// Delay returns the backoff before retry number retries (0-based):
// exponential doubling from retryBackoff, capped at retryMaxBackoff,
// with full seeded jitter. The RNG is drawn exactly once per call, so
// callers sharing an RNG stream get reproducible schedules.
func (p RetryPolicy) Delay(retries int, rng *simclock.RNG) time.Duration {
	d := retryBackoff << retries
	if d > retryMaxBackoff || d <= 0 {
		d = retryMaxBackoff
	}
	return time.Duration(float64(d) * (1 - retryJitter*rng.Float64()))
}

// HealthPolicy tunes the per-device health state machine and the
// recovery probe (see Health for the state diagram). All streak
// thresholds count consecutive requests.
type HealthPolicy struct {
	// DegradeAfterErrors moves healthy → degraded after this many
	// consecutive exhausted-retry errors. 0 defaults to 3.
	DegradeAfterErrors int

	// QuarantineAfterErrors moves degraded → quarantined after this
	// many consecutive errors. 0 defaults to 8.
	QuarantineAfterErrors int

	// DegradeAfterTimeouts moves healthy → degraded after this many
	// consecutive timeout-class completions. 0 defaults to 8.
	DegradeAfterTimeouts int

	// QuarantineAfterTimeouts moves degraded → quarantined after this
	// many consecutive timeouts. 0 defaults to 32.
	QuarantineAfterTimeouts int

	// RecoverAfterOK moves degraded → healthy after this many
	// consecutive clean completions. 0 defaults to 64.
	RecoverAfterOK int

	// ProbeAfterRejections triggers a recovery probe after a
	// quarantined device has bounced this many requests — a
	// deterministic trigger phrased in the device's own request
	// stream. 0 defaults to 128; negative disables the
	// rejection-count trigger.
	ProbeAfterRejections int

	// ProbeRequests is the length of the recovery probe pass. 0
	// defaults to 32.
	ProbeRequests int

	// ProbeInterval, when > 0, additionally probes quarantined
	// devices from a background wall-clock ticker (the daemon sets
	// this). It is off by default: wall-clock probing trades the
	// fleet's determinism for liveness under idle traffic.
	ProbeInterval time.Duration
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.DegradeAfterErrors == 0 {
		p.DegradeAfterErrors = 3
	}
	if p.QuarantineAfterErrors == 0 {
		p.QuarantineAfterErrors = 8
	}
	if p.DegradeAfterTimeouts == 0 {
		p.DegradeAfterTimeouts = 8
	}
	if p.QuarantineAfterTimeouts == 0 {
		p.QuarantineAfterTimeouts = 32
	}
	if p.RecoverAfterOK == 0 {
		p.RecoverAfterOK = 64
	}
	if p.ProbeAfterRejections == 0 {
		p.ProbeAfterRejections = 128
	}
	if p.ProbeRequests == 0 {
		p.ProbeRequests = 32
	}
	return p
}

func (p HealthPolicy) validate() error {
	for _, v := range []int{p.DegradeAfterErrors, p.QuarantineAfterErrors,
		p.DegradeAfterTimeouts, p.QuarantineAfterTimeouts, p.RecoverAfterOK, p.ProbeRequests} {
		if v < 0 {
			return fmt.Errorf("fleet: negative health threshold")
		}
	}
	if p.ProbeInterval < 0 {
		return fmt.Errorf("fleet: negative probe interval")
	}
	return nil
}

// ModelPolicy tunes the per-device model-health state machine: the
// drift watchdog layered on the predictor's sliding accuracy windows,
// the conservative fallback, and the budgeted online re-diagnosis (see
// ModelHealth for the state diagram). Streak thresholds count served
// completions on the device's own request stream, so the machine is
// deterministic across shard counts.
type ModelPolicy struct {
	// Disabled turns the whole model-health machine off: devices stay
	// calibrated forever and always serve live predictions.
	Disabled bool

	// FloorHL is the sliding HL accuracy under which a calibrated
	// device is declared drifting (once MinSamples HL observations are
	// in the window), and under which a spent drift budget condemns
	// the model to fallback. 0 defaults to 0.45 — above the
	// calibrator's own distribution-reset rung (0.35) so drift is
	// flagged before the ladder starts discarding history, but under
	// the steady-state accuracy of every built-in preset.
	FloorHL float64

	// MinSamples is the HL window population required before FloorHL
	// and RecoverAboveHL apply. It must sit under the calibrator's own
	// DisableMinSamples: the calibration ladder halves the windows on
	// every check and zeroes them on a distribution reset. 0 defaults
	// to 160.
	MinSamples int

	// RecoverAboveHL is the sliding HL accuracy at which a drifting
	// device re-calibrates without re-diagnosis (hysteresis against
	// flapping around the floor). 0 defaults to 0.75.
	RecoverAboveHL float64

	// FallbackAfter is how many served completions a device may spend
	// drifting before it falls back to conservative predictions. 0
	// defaults to 512.
	FallbackAfter int

	// RediagAfter is how many conservative completions a fallback
	// device serves before an automatic re-diagnosis starts. 0
	// defaults to 64; negative disables automatic re-diagnosis
	// (operator-initiated Rediagnose still works).
	RediagAfter int

	// RediagBudget bounds the re-diagnosis probes: it is the GC
	// interval count of the budgeted cadence probe. 0 defaults to 12.
	RediagBudget int

	// MaxRediags caps automatic re-diagnosis attempts per device;
	// after the cap, fallback is terminal (still overridable via
	// Rediagnose). 0 defaults to 8.
	MaxRediags int
}

func (p ModelPolicy) withDefaults() ModelPolicy {
	if p.FloorHL == 0 {
		p.FloorHL = 0.45
	}
	if p.MinSamples == 0 {
		p.MinSamples = 160
	}
	if p.RecoverAboveHL == 0 {
		p.RecoverAboveHL = 0.75
	}
	if p.FallbackAfter == 0 {
		p.FallbackAfter = 512
	}
	if p.RediagAfter == 0 {
		p.RediagAfter = 64
	}
	if p.RediagBudget == 0 {
		p.RediagBudget = 12
	}
	if p.MaxRediags == 0 {
		p.MaxRediags = 8
	}
	return p
}

func (p ModelPolicy) validate() error {
	if p.FloorHL < 0 || p.FloorHL > 1 || p.RecoverAboveHL < 0 || p.RecoverAboveHL > 1 {
		return fmt.Errorf("fleet: model accuracy bounds outside [0, 1]")
	}
	if p.RecoverAboveHL != 0 && p.FloorHL != 0 && p.RecoverAboveHL < p.FloorHL {
		return fmt.Errorf("fleet: model recovery bound %v under drift floor %v", p.RecoverAboveHL, p.FloorHL)
	}
	for _, v := range []int{p.MinSamples, p.FallbackAfter, p.RediagBudget, p.MaxRediags} {
		if v < 0 {
			return fmt.Errorf("fleet: negative model threshold")
		}
	}
	return nil
}

// Config parameterizes a fleet manager.
type Config struct {
	// Devices lists the fleet members. IDs must be unique.
	Devices []DeviceSpec

	// Shards is the worker-pool size: one goroutine per shard, each
	// owning a disjoint subset of the devices. 0 defaults to
	// min(len(Devices), GOMAXPROCS).
	Shards int

	// QueueDepth is the per-shard ingress ring capacity (rounded up to
	// a power of two); producers spin when a ring is full, so this
	// bounds how far submitters can run ahead of a shard. 0 defaults
	// to 64.
	QueueDepth int

	// PreconditionFactor is the dirtying factor applied before
	// diagnosis (the SNIA steady-state practice). 0 defaults to 1.3;
	// negative skips preconditioning entirely.
	PreconditionFactor float64

	// Diagnosis tunes the startup probes for devices without preloaded
	// Features. The zero value uses the full-strength defaults.
	Diagnosis extract.Opts

	// Retry bounds transient-error retries. The zero value takes the
	// standard defaults.
	Retry RetryPolicy

	// Health tunes the per-device health state machine and recovery
	// probes. The zero value takes the standard defaults.
	Health HealthPolicy

	// Model tunes the per-device model-health machine: drift watchdog,
	// conservative fallback, and online re-diagnosis. The zero value
	// takes the standard defaults.
	Model ModelPolicy

	// AllowEmpty accepts a configuration with no devices. A cluster
	// node starts this way — an empty manager whose members arrive
	// later through Attach — so the usual "no devices" rejection would
	// make restarted nodes unconstructable.
	AllowEmpty bool

	// Registry receives the fleet's metrics (request/error/retry
	// counters, health gauges, latency histograms), which the daemon
	// exposes in Prometheus text format. nil builds a private registry
	// — the same metrics still power the JSON snapshots.
	Registry *obs.Registry

	// Recorder receives sampled request traces and named events
	// (health transitions, calibration resets). nil defaults to the
	// allocation-free no-op recorder.
	Recorder obs.Recorder
}

func (c Config) withDefaults() Config {
	c.Retry = c.Retry.WithDefaults()
	c.Health = c.Health.withDefaults()
	c.Model = c.Model.withDefaults()
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Recorder == nil {
		c.Recorder = obs.Nop()
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards > len(c.Devices) && len(c.Devices) > 0 {
		c.Shards = len(c.Devices)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PreconditionFactor == 0 {
		c.PreconditionFactor = 1.3
	}
	return c
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	if len(c.Devices) == 0 && !c.AllowEmpty {
		return fmt.Errorf("fleet: no devices configured")
	}
	shards := c.withDefaults().Shards
	seen := make(map[string]bool, len(c.Devices))
	for i, d := range c.Devices {
		if d.ID == "" {
			return fmt.Errorf("fleet: device %d has no ID", i)
		}
		if seen[d.ID] {
			return fmt.Errorf("fleet: duplicate device ID %q", d.ID)
		}
		seen[d.ID] = true
		if d.Config == nil {
			if _, err := ssd.Preset(d.Preset, d.Seed); err != nil {
				return fmt.Errorf("fleet: device %q: %w", d.ID, err)
			}
		} else if err := d.Config.Validate(); err != nil {
			return fmt.Errorf("fleet: device %q: %w", d.ID, err)
		}
		if d.Shard < 0 || d.Shard > shards {
			return fmt.Errorf("fleet: device %q pinned to shard %d of %d", d.ID, d.Shard, shards)
		}
		if d.Features != nil {
			if err := d.Features.Validate(); err != nil {
				return fmt.Errorf("fleet: device %q: %w", d.ID, err)
			}
		}
		if d.Faults != nil {
			if err := d.Faults.Validate(); err != nil {
				return fmt.Errorf("fleet: device %q: %w", d.ID, err)
			}
		}
	}
	if err := c.Health.validate(); err != nil {
		return err
	}
	return c.Model.validate()
}

// PresetDevices builds n device specs cycling through the given preset
// names ("A".."H", "X"), with IDs like "ssd-00-A" and per-device seeds
// derived from baseSeed. It is the standard way to stand up a
// mixed-preset fleet for the daemon, examples, and benchmarks.
func PresetDevices(n int, presets []string, baseSeed uint64) []DeviceSpec {
	if len(presets) == 0 {
		presets = append([]string(nil), ssd.ExtendedPresetNames...)
	}
	out := make([]DeviceSpec, 0, n)
	for i := 0; i < n; i++ {
		p := presets[i%len(presets)]
		out = append(out, DeviceSpec{
			ID:     fmt.Sprintf("ssd-%02d-%s", i, p),
			Preset: p,
			Seed:   baseSeed + uint64(i)*0x9e3779b9,
		})
	}
	return out
}

// FastDiagnosis returns reduced-strength diagnosis options that still
// recover every structural feature of the built-in presets but probe an
// order of magnitude fewer requests. Tests, benchmarks, and quickstart
// fleets use it to keep startup short; production diagnosis should use
// the zero-value (full-strength) Opts.
func FastDiagnosis() extract.Opts {
	return extract.Opts{
		MinBit:            16,
		MaxBit:            18,
		AllocWritesPerBit: 1500,
		GCIntervals:       12,
		Thinktimes:        []time.Duration{500 * time.Microsecond},
	}
}
