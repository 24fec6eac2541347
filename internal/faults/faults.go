// Package faults is a deterministic, seedable fault injector for
// block devices: it wraps any blockdev.Device and makes it misbehave
// the way hyperscale operators report real SSDs do — transient I/O
// errors, latency storms, stuck-busy windows, fail-stop death, silent
// model drift, and firmware-update-like feature shifts.
//
// Everything is reproducible. Faults fire from schedules — at a fixed
// request number, or per request with a probability drawn from an RNG
// seeded in the Config — so the same seed and schedule produce the
// same fault sequence on every run, which is what lets the fleet's
// resilience tests assert byte-identical health-transition logs.
//
// The injector is armed explicitly: while disarmed it is a pure
// passthrough and its request counter does not advance. The fleet
// wraps devices before preconditioning and diagnosis but arms the
// injector only when serving starts, so schedules are phrased in
// serving-traffic request numbers.
//
// Like the devices it wraps, an Injector is not safe for concurrent
// use: submissions must come from one goroutine in non-decreasing time
// order (internal/fleet guarantees this by giving every device a
// single owning shard goroutine).
package faults

import (
	"fmt"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/fsm"
	"ssdcheck/internal/simclock"
)

// Kind enumerates the injectable fault behaviors.
type Kind uint8

const (
	// Transient fails the affected requests with an error wrapping
	// blockdev.ErrTransient; the device is untouched, and a retry of
	// the same request may succeed.
	Transient Kind = iota
	// LatencyStorm multiplies observed latency by Factor for a window
	// of Count requests.
	LatencyStorm
	// StuckBusy pins observed latency to at least Pin (timeout-class)
	// for a window of Count requests, modeling a device that has gone
	// quiet but still eventually answers.
	StuckBusy
	// FailStop permanently fails every request with an error wrapping
	// blockdev.ErrDeviceFailed once triggered.
	FailStop
	// Drift silently scales observed latency by Factor from the
	// trigger point on, invalidating the timing model the predictor
	// extracted so its calibrator has real drift to repair.
	Drift
	// FeatureShift silently changes the device's internal behavior
	// (write-buffer size, buffer type, read-trigger flushing) at the
	// trigger point — a firmware-update analog that invalidates the
	// extracted structural model, not just its timing. It applies once,
	// only to devices implementing blockdev.FeatureShifter, and does
	// not distort the triggering request's latency.
	FeatureShift
)

var kindNames = fsm.NewNames[Kind]("kind", "faults: unknown kind",
	"transient", "latency-storm", "stuck-busy", "fail-stop", "drift", "feature-shift")

// String names the fault kind for logs and reports.
func (k Kind) String() string { return kindNames.String(k) }

// Schedule describes when one fault fires and how long it lasts.
// Exactly one trigger must be set: At fires once when the armed
// request counter reaches At (1-based); Prob fires independently per
// request with the given probability from the injector's seeded RNG
// (and re-arms, so a Prob schedule can fire many times).
type Schedule struct {
	// Kind selects the fault behavior.
	Kind Kind `json:"kind"`

	// At, when > 0, triggers the fault at armed request number At.
	At int64 `json:"at,omitempty"`

	// Prob, when > 0, triggers the fault on any request with this
	// probability. Must be in (0, 1].
	Prob float64 `json:"prob,omitempty"`

	// Count bounds how many requests the fault affects once fired.
	// 0 takes the kind's default: 1 for Transient, 64 for LatencyStorm
	// and StuckBusy. FailStop and Drift are permanent and ignore Count.
	Count int64 `json:"count,omitempty"`

	// Factor scales latency for LatencyStorm (default 8) and Drift
	// (default 1.25). Must be positive when set.
	Factor float64 `json:"factor,omitempty"`

	// Pin is the minimum latency StuckBusy imposes (default 1s).
	Pin time.Duration `json:"pin,omitempty"`

	// Shift describes what a FeatureShift fault changes. Nil takes the
	// default (halve the write buffer); a Shift with no effect set is a
	// configuration error. Ignored by other kinds.
	Shift *blockdev.FeatureShift `json:"shift,omitempty"`
}

func (s Schedule) withDefaults() Schedule {
	if s.Count == 0 {
		switch s.Kind {
		case Transient:
			s.Count = 1
		case LatencyStorm, StuckBusy:
			s.Count = 64
		}
	}
	if s.Factor == 0 {
		switch s.Kind {
		case LatencyStorm:
			s.Factor = 8
		case Drift:
			s.Factor = 1.25
		}
	}
	if s.Pin == 0 {
		s.Pin = time.Second
	}
	if s.Kind == FeatureShift && s.Shift == nil {
		s.Shift = &blockdev.FeatureShift{BufferScale: 0.5}
	}
	return s
}

func (s Schedule) validate(i int) error {
	if s.Kind > FeatureShift {
		return fmt.Errorf("faults: schedule %d: unknown kind %d", i, s.Kind)
	}
	if s.Kind == FeatureShift && s.Shift != nil && s.Shift.Empty() {
		return fmt.Errorf("faults: schedule %d (%s): shift changes nothing", i, s.Kind)
	}
	if s.Shift != nil && s.Shift.BufferScale < 0 {
		return fmt.Errorf("faults: schedule %d (%s): negative BufferScale %v", i, s.Kind, s.Shift.BufferScale)
	}
	if (s.At > 0) == (s.Prob > 0) {
		return fmt.Errorf("faults: schedule %d (%s): exactly one of At and Prob must be set", i, s.Kind)
	}
	if s.At < 0 {
		return fmt.Errorf("faults: schedule %d (%s): negative At %d", i, s.Kind, s.At)
	}
	if s.Prob < 0 || s.Prob > 1 {
		return fmt.Errorf("faults: schedule %d (%s): Prob %v outside (0, 1]", i, s.Kind, s.Prob)
	}
	if s.Count < 0 {
		return fmt.Errorf("faults: schedule %d (%s): negative Count %d", i, s.Kind, s.Count)
	}
	if s.Factor < 0 {
		return fmt.Errorf("faults: schedule %d (%s): negative Factor %v", i, s.Kind, s.Factor)
	}
	if s.Pin < 0 {
		return fmt.Errorf("faults: schedule %d (%s): negative Pin %v", i, s.Kind, s.Pin)
	}
	return nil
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives the probability triggers and nothing else; two
	// injectors with equal Seed and Schedules inject identically.
	Seed uint64 `json:"seed"`

	// Schedules lists the faults to inject. Empty is valid (a
	// passthrough injector).
	Schedules []Schedule `json:"schedules"`
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	for i, s := range c.Schedules {
		if err := s.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Stats counts what the injector has done so far.
type Stats struct {
	// Requests is the number of armed requests seen.
	Requests int64 `json:"requests"`
	// TransientErrors is the number of injected transient failures.
	TransientErrors int64 `json:"transient_errors"`
	// Inflated is the number of requests whose latency a storm or
	// drift fault scaled.
	Inflated int64 `json:"inflated"`
	// Stuck is the number of requests pinned to stuck-busy latency.
	Stuck int64 `json:"stuck"`
	// FailStopped reports whether a fail-stop fault has triggered.
	FailStopped bool `json:"fail_stopped"`
	// FeatureShifts is the number of feature-shift faults applied to
	// the wrapped device.
	FeatureShifts int64 `json:"feature_shifts,omitempty"`
}

// schedState is a Schedule plus its firing state.
type schedState struct {
	Schedule
	fired   bool  // At-trigger consumed, or Prob window open
	left    int64 // remaining affected requests in the open window
	applied bool  // feature shift delivered (one-shot latch)
}

// Injector wraps a device and injects the configured faults. It
// implements blockdev.Device, blockdev.FallibleDevice and
// blockdev.TaggedDevice; resilient callers should use the checked
// path, since the infallible Submit can only render an injected error
// as a timeout-class completion.
type Injector struct {
	dev     blockdev.Device
	tagged  blockdev.TaggedDevice   // non-nil when dev exposes ground truth
	shifter blockdev.FeatureShifter // non-nil when dev can shift features
	rng     *simclock.RNG
	scheds  []schedState

	armed  bool
	n      int64 // armed requests seen
	failed bool  // fail-stop latched
	stats  Stats

	// lastCause carries the wrapped device's ground-truth cause from
	// the most recent passthrough to SubmitTagged.
	lastCause      blockdev.Cause
	lastCauseValid bool
}

// errLatency is the completion penalty the infallible Submit reports
// for an injected error: from a latency-only observer, a failed
// request is indistinguishable from a timeout.
const errLatency = time.Second

// New wraps dev in an armed injector. Use SetArmed(false) first if the
// device still has fault-free setup traffic ahead of it, as the fleet
// does for preconditioning and diagnosis.
func New(dev blockdev.Device, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{dev: dev, rng: simclock.NewRNG(cfg.Seed), armed: true}
	inj.tagged, _ = dev.(blockdev.TaggedDevice)
	inj.shifter, _ = dev.(blockdev.FeatureShifter)
	for _, s := range cfg.Schedules {
		inj.scheds = append(inj.scheds, schedState{Schedule: s.withDefaults()})
	}
	return inj, nil
}

// SetArmed enables or disables injection. While disarmed the injector
// is a passthrough and its request counter does not advance.
func (i *Injector) SetArmed(armed bool) { i.armed = armed }

// CapacitySectors reports the wrapped device's capacity.
func (i *Injector) CapacitySectors() int64 { return i.dev.CapacitySectors() }

// SubmitChecked runs the request through the fault schedules and the
// wrapped device. Injected failures wrap blockdev.ErrTransient or
// blockdev.ErrDeviceFailed.
func (i *Injector) SubmitChecked(req blockdev.Request, at simclock.Time) (simclock.Time, error) {
	done, _, err := i.submit(req, at)
	return done, err
}

// Submit implements the infallible Device surface: an injected error
// surfaces as a timeout-class completion, which is exactly how a
// latency-only host perceives a failed black-box request.
func (i *Injector) Submit(req blockdev.Request, at simclock.Time) simclock.Time {
	done, _, err := i.submit(req, at)
	if err != nil {
		return at.Add(errLatency)
	}
	return done
}

// SubmitTagged passes the ground-truth cause through when the wrapped
// device exposes one; requests whose latency a fault touched report
// CauseSecondary (an unmodeled delay), and injected errors surface as
// timeout-class CauseSecondary completions.
func (i *Injector) SubmitTagged(req blockdev.Request, at simclock.Time) (simclock.Time, blockdev.Cause) {
	done, faulted, err := i.submit(req, at)
	if err != nil {
		return at.Add(errLatency), blockdev.CauseSecondary
	}
	if faulted {
		return done, blockdev.CauseSecondary
	}
	if i.lastCauseValid {
		return done, i.lastCause
	}
	return done, blockdev.CauseNone
}

// submit is the single fault-resolution path. It returns the
// (possibly inflated) completion time, whether any fault touched the
// request, and the injected error if one fired. Fault precedence:
// fail-stop dominates everything, then transient errors, then the
// latency faults stack multiplicatively on the device's real service
// time.
func (i *Injector) submit(req blockdev.Request, at simclock.Time) (simclock.Time, bool, error) {
	i.lastCauseValid = false
	if !i.armed {
		return i.passthrough(req, at), false, nil
	}
	i.n++
	i.stats.Requests++

	// Fire triggers. Prob draws happen for every schedule on every
	// request so the RNG stream is a pure function of the request
	// number, independent of other schedules' state.
	for k := range i.scheds {
		s := &i.scheds[k]
		switch {
		case s.At > 0 && !s.fired && i.n >= s.At:
			s.fired = true
			s.left = s.Count
		case s.Prob > 0:
			if i.rng.Float64() < s.Prob && s.left == 0 {
				s.fired = true
				s.left = s.Count
			}
		}
	}

	// Deliver feature shifts before anything serves: the triggering
	// request already runs against the shifted device, silently — the
	// host observes no error and no distorted latency, only a model
	// that has quietly stopped matching reality. One-shot even for
	// Prob triggers.
	for k := range i.scheds {
		s := &i.scheds[k]
		if s.Kind != FeatureShift || !s.fired || s.applied {
			continue
		}
		s.applied = true
		if i.shifter != nil && i.shifter.ShiftFeatures(*s.Shift) {
			i.stats.FeatureShifts++
		}
	}

	// Resolve effects: errors first.
	if i.failed {
		return 0, true, fmt.Errorf("faults: request %d: %w", i.n, blockdev.ErrDeviceFailed)
	}
	for k := range i.scheds {
		s := &i.scheds[k]
		if s.Kind == FailStop && s.fired {
			i.failed = true
			i.stats.FailStopped = true
			return 0, true, fmt.Errorf("faults: fail-stop at request %d: %w", i.n, blockdev.ErrDeviceFailed)
		}
	}
	for k := range i.scheds {
		s := &i.scheds[k]
		if s.Kind == Transient && s.fired && s.left > 0 {
			s.left--
			if s.left == 0 {
				s.fired = s.At > 0 // Prob schedules re-arm
			}
			i.stats.TransientErrors++
			return 0, true, fmt.Errorf("faults: injected transient at request %d: %w", i.n, blockdev.ErrTransient)
		}
	}

	// The device serves the request; latency faults distort what the
	// host observes.
	done := i.passthrough(req, at)
	lat := done.Sub(at)
	faulted := false
	for k := range i.scheds {
		s := &i.scheds[k]
		if !s.fired {
			continue
		}
		switch s.Kind {
		case LatencyStorm:
			if s.left > 0 {
				s.left--
				if s.left == 0 {
					s.fired = s.At > 0
				}
				lat = time.Duration(float64(lat) * s.Factor)
				i.stats.Inflated++
				faulted = true
			}
		case StuckBusy:
			if s.left > 0 {
				s.left--
				if s.left == 0 {
					s.fired = s.At > 0
				}
				if lat < s.Pin {
					lat = s.Pin
				}
				i.stats.Stuck++
				faulted = true
			}
		case Drift:
			lat = time.Duration(float64(lat) * s.Factor)
			i.stats.Inflated++
			faulted = true
		}
	}
	return at.Add(lat), faulted, nil
}

// passthrough submits to the wrapped device, preferring the tagged
// surface so SubmitTagged can relay ground truth.
func (i *Injector) passthrough(req blockdev.Request, at simclock.Time) simclock.Time {
	if i.tagged != nil {
		done, cause := i.tagged.SubmitTagged(req, at)
		i.lastCause, i.lastCauseValid = cause, true
		return done
	}
	return i.dev.Submit(req, at)
}
