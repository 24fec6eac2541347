package fleet

import (
	"errors"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fsm"
	"ssdcheck/internal/simclock"
)

// Typed fleet errors. Per-request failures surface in Result.Err (and
// as the error return of the single-request Submit); all are
// errors.Is-compatible so callers can dispatch without string
// matching.
var (
	// ErrDeviceQuarantined rejects requests routed to a device the
	// health state machine has taken out of service.
	ErrDeviceQuarantined = errors.New("fleet: device quarantined")
	// ErrUnknownDevice rejects requests addressed to an ID the fleet
	// does not own.
	ErrUnknownDevice = errors.New("fleet: unknown device")
	// ErrManagerClosed rejects batches submitted after Close.
	ErrManagerClosed = errors.New("fleet: manager closed")
)

// Health is a fleet device's position in the resilience state
// machine:
//
//	healthy ⇄ degraded → quarantined ⇄ recovering
//	                          ↑____________|  (probe fail)
//	recovering → healthy                      (probe pass)
//
// A device degrades on consecutive errors or timeout-class latencies,
// is quarantined (taken out of routing) when they persist or on any
// fail-stop error, and returns to service only after a recovery probe
// pass.
type Health uint8

const (
	// Healthy devices serve requests normally.
	Healthy Health = iota
	// Degraded devices still serve but are accumulating errors or
	// latency anomalies; sustained trouble quarantines them, a clean
	// streak heals them.
	Degraded
	// Quarantined devices are out of routing: their requests fail
	// fast with ErrDeviceQuarantined.
	Quarantined
	// Recovering devices are mid recovery-probe; the state is
	// transient (the probe runs synchronously on the owning shard)
	// but appears in transition logs.
	Recovering
)

var healthNames = fsm.NewNames[Health]("health", "fleet: unknown health state",
	"healthy", "degraded", "quarantined", "recovering")

// String names the state for logs and wire formats.
func (h Health) String() string { return healthNames.String(h) }

// MarshalJSON renders the state as its string name.
func (h Health) MarshalJSON() ([]byte, error) { return healthNames.Quote(h) }

// UnmarshalJSON parses the string names MarshalJSON emits, so API
// clients can round-trip snapshots and health reports. It rejects
// null: a DeviceState arriving on attach must name its state.
func (h *Health) UnmarshalJSON(b []byte) error { return healthNames.ParseJSON(h, b) }

// HealthTransition is one edge taken in a device's health state
// machine. Seq counts every routed request, including rejected ones.
type HealthTransition = fsm.Transition[Health]

// HealthReport is the detailed per-device resilience view served by
// Manager.DeviceHealth and the daemon's /v1/devices/{id}/health.
type HealthReport struct {
	ID     string `json:"id"`
	Health Health `json:"health"`

	// ConsecutiveErrors and ConsecutiveTimeouts are the running
	// anomaly streaks driving degradation.
	ConsecutiveErrors   int `json:"consecutive_errors"`
	ConsecutiveTimeouts int `json:"consecutive_timeouts"`

	// RejectedSinceQuarantine counts requests bounced since the device
	// left service; it triggers the deterministic recovery probe.
	RejectedSinceQuarantine int64 `json:"rejected_since_quarantine"`

	// Probes counts recovery-probe attempts (passed or failed).
	Probes int64 `json:"probes"`

	// Transitions is the full health-transition log, oldest first.
	Transitions []HealthTransition `json:"transitions"`
}

// DeviceHealthLog pairs a device with its transition log; Manager's
// HealthLog returns one per device in configuration order so the whole
// fleet's resilience history marshals deterministically.
type DeviceHealthLog struct {
	ID          string             `json:"id"`
	Health      Health             `json:"health"`
	Transitions []HealthTransition `json:"transitions"`
}

// transition moves the device to a new health state and logs the edge.
// It runs on the owning shard goroutine with md.mu held.
func (md *managedDevice) transitionLocked(to Health, cause string) {
	edge := HealthTransition{Seq: md.seq, From: md.health, To: to, Cause: cause}
	if fsm.Move(&md.health, to, &md.translog, edge) {
		md.stats.vals[statTransitions]++
		md.rec.Event("health_"+to.String(), md.id)
	}
}

// noteOutcomeLocked feeds one served request's outcome (error, timeout
// or clean completion) into the state machine. Callers hold md.mu.
func (md *managedDevice) noteOutcomeLocked(err error, timedOut bool, hp *HealthPolicy) {
	switch {
	case err != nil && errors.Is(err, blockdev.ErrDeviceFailed):
		md.consecErr++
		md.consecOK = 0
		md.enterQuarantineLocked("fail-stop error")
		return
	case err != nil:
		md.consecErr++
		md.consecOK = 0
	case timedOut:
		md.consecSlow++
		md.consecErr = 0
		md.consecOK = 0
	default:
		md.consecErr = 0
		md.consecSlow = 0
		md.consecOK++
	}

	switch md.health {
	case Healthy:
		switch {
		case md.consecErr >= hp.DegradeAfterErrors:
			md.transitionLocked(Degraded, "consecutive errors")
		case md.consecSlow >= hp.DegradeAfterTimeouts:
			md.transitionLocked(Degraded, "consecutive timeouts")
		}
	case Degraded:
		switch {
		case md.consecErr >= hp.QuarantineAfterErrors:
			md.enterQuarantineLocked("persistent errors")
		case md.consecSlow >= hp.QuarantineAfterTimeouts:
			md.enterQuarantineLocked("persistent timeouts")
		case md.consecOK >= hp.RecoverAfterOK:
			md.transitionLocked(Healthy, "clean streak")
		}
	}
}

// enterQuarantineLocked takes the device out of routing and resets the
// streaks so a later recovery starts clean. Callers hold md.mu.
func (md *managedDevice) enterQuarantineLocked(cause string) {
	md.transitionLocked(Quarantined, cause)
	md.consecErr, md.consecSlow, md.consecOK = 0, 0, 0
	md.rejections = 0
}

// tryRecover runs one recovery probe: quarantined → recovering, a
// cheap seeded probe pass against the device, then healthy on pass or
// back to quarantined on fail. It runs on the owning shard goroutine.
func (md *managedDevice) tryRecover(cfg *Config) {
	md.mu.Lock()
	if md.health != Quarantined {
		md.mu.Unlock()
		return
	}
	md.transitionLocked(Recovering, "recovery probe")
	md.stats.vals[statProbes]++
	md.mu.Unlock()

	ok := md.runProbe(cfg)

	md.mu.Lock()
	if ok {
		md.transitionLocked(Healthy, "probe pass")
		md.consecErr, md.consecSlow, md.consecOK = 0, 0, 0
	} else {
		md.transitionLocked(Quarantined, "probe fail")
	}
	md.rejections = 0
	md.publishLocked()
	md.mu.Unlock()
}

// runProbe issues a short seeded read/write pass on the device's
// virtual clock — a miniature of the diagnosis traffic — and passes
// only if every request completes without error and under the request
// timeout.
func (md *managedDevice) runProbe(cfg *Config) bool {
	hp := cfg.Health
	pages := md.dev.CapacitySectors() / blockdev.SectorsPerPage
	for i := 0; i < hp.ProbeRequests; i++ {
		op := blockdev.Read
		if i%2 == 1 {
			op = blockdev.Write
		}
		req := blockdev.Request{
			Op:      op,
			LBA:     md.rng.Int63n(pages) * blockdev.SectorsPerPage,
			Sectors: blockdev.SectorsPerPage,
		}
		done, err := md.submitChecked(req, md.now)
		if err != nil {
			return false
		}
		lat := done.Sub(md.now)
		md.now = done
		if lat >= hp.RequestTimeout {
			return false
		}
	}
	return true
}

// submitChecked routes through the cached fallible surface when the
// device has one, avoiding a per-request type assertion on the hot
// path.
func (md *managedDevice) submitChecked(req blockdev.Request, at simclock.Time) (simclock.Time, error) {
	if md.fallible != nil {
		return md.fallible.SubmitChecked(req, at)
	}
	return md.dev.Submit(req, at), nil
}
