// Package blockdev defines the request vocabulary shared by everything
// that talks to a block device: the simulated SSDs, the diagnosis
// snippets, the predictor, the volume managers and the schedulers.
//
// The Device interface is deliberately minimal — it is exactly the
// black-box surface SSDcheck has against a commodity SSD: submit a
// request, learn when it completed. Ground-truth cause tags exist only on
// the richer interfaces of the concrete simulator type, for evaluation;
// nothing on Device exposes them.
package blockdev

import (
	"errors"

	"ssdcheck/internal/fsm"
	"ssdcheck/internal/simclock"
)

// SectorSize is the addressable unit of every device in this repository.
const SectorSize = 512

// PageSize is the NAND page (and FTL mapping) granularity.
const PageSize = 4096

// SectorsPerPage is the number of LBA sectors per NAND page.
const SectorsPerPage = PageSize / SectorSize

// Op is a block request type.
type Op uint8

const (
	// Read fetches data.
	Read Op = iota
	// Write stores data.
	Write
	// Trim invalidates a logical range without writing.
	Trim
)

var opNames = fsm.NewNames[Op]("op", "blockdev: unknown op", "read", "write", "trim")

// String returns the conventional lowercase name of the operation.
func (o Op) String() string { return opNames.String(o) }

// Request is one block I/O request.
type Request struct {
	Op      Op
	LBA     int64 // sector address
	Sectors int   // length in sectors
}

// Bytes returns the request payload size in bytes.
func (r Request) Bytes() int { return r.Sectors * SectorSize }

// Error taxonomy. Real black-box SSDs do not only go slow — they also
// fail requests, transiently (media retries, link resets) or for good
// (fail-stop). Every error a device surfaces wraps one of these two
// sentinels, so callers dispatch on errors.Is rather than string
// matching: ErrTransient means the same request may succeed if retried;
// ErrDeviceFailed means the device is gone and retrying is pointless.
var (
	// ErrTransient marks a request failure that a bounded retry may
	// clear.
	ErrTransient = errors.New("transient I/O error")
	// ErrDeviceFailed marks a permanent, fail-stop device failure.
	ErrDeviceFailed = errors.New("device failed")
)

// Device is the black-box view of a block device: the only operations a
// host (and therefore SSDcheck) has available.
//
// Implementations are not required to be (and the simulated devices are
// not) safe for concurrent use: submissions to one Device must come
// from one goroutine, in non-decreasing time order. internal/fleet is
// the concurrent entry point — it gives every device a single owning
// goroutine.
type Device interface {
	// Submit hands the device a request at virtual instant at and
	// returns the instant the request completes. Submissions touching
	// the same internal volume must be issued in non-decreasing time
	// order; the simulated device serializes media work per volume.
	Submit(req Request, at simclock.Time) simclock.Time

	// CapacitySectors returns the addressable capacity in sectors.
	CapacitySectors() int64
}

// FallibleDevice is a Device that can refuse a request. The simulated
// SSDs never fail, so the base Device interface keeps its infallible
// Submit; fault-injecting wrappers (internal/faults) and future real
// transports implement this extension, and resilient callers reach it
// through the package-level SubmitChecked helper.
//
// The concurrency contract is Device's: one goroutine, non-decreasing
// submit times.
type FallibleDevice interface {
	Device

	// SubmitChecked behaves like Submit but may fail the request with
	// an error wrapping ErrTransient or ErrDeviceFailed. On error the
	// returned time is meaningless and the request had no effect.
	SubmitChecked(req Request, at simclock.Time) (simclock.Time, error)
}

// SubmitChecked submits through the checked path when the device
// supports it and falls back to the infallible Submit otherwise. Layers
// that must survive failing devices (internal/fleet, the diagnosis
// probes) call this instead of Device.Submit.
func SubmitChecked(dev Device, req Request, at simclock.Time) (simclock.Time, error) {
	if f, ok := dev.(FallibleDevice); ok {
		return f.SubmitChecked(req, at)
	}
	return dev.Submit(req, at), nil
}

// Cause labels why a request was slow. It is ground truth emitted by the
// simulator for evaluation and tests only; it is not part of Device and
// the prediction pipeline never sees it.
type Cause uint8

const (
	// CauseNone marks an uninterfered, normal-latency request.
	CauseNone Cause = iota
	// CauseFlush marks a request delayed by a write-buffer flush
	// draining to the NAND (including fore-type flush waits).
	CauseFlush
	// CauseBackpressure marks a write stalled because the previous
	// buffer flush had not finished draining.
	CauseBackpressure
	// CauseReadTrigger marks a read that itself triggered a buffer
	// flush (read-trigger flush algorithm) and waited for it.
	CauseReadTrigger
	// CauseGC marks a request delayed by garbage collection.
	CauseGC
	// CauseSecondary marks delays from unmodeled secondary features
	// (wear-leveling moves, SLC-cache folding, read-disturb scrubs).
	CauseSecondary
)

// causeRank orders causes by severity for single-label reporting: GC
// dominates everything, then secondary stalls, then the flush family.
// Indexed by Cause; unknown causes rank lowest.
var causeRank = [...]int8{
	CauseNone:         0,
	CauseFlush:        1,
	CauseBackpressure: 2,
	CauseReadTrigger:  3,
	CauseSecondary:    4,
	CauseGC:           5,
}

// WorseCause returns the more severe of two causes. A request that hits
// several delay sources is reported under one label, exactly as the
// paper attributes each high-latency event to its dominant mechanism.
func WorseCause(a, b Cause) Cause {
	ra, rb := int8(0), int8(0)
	if int(a) < len(causeRank) {
		ra = causeRank[a]
	}
	if int(b) < len(causeRank) {
		rb = causeRank[b]
	}
	if rb > ra {
		return b
	}
	return a
}

var causeNames = fsm.NewNames[Cause]("cause", "blockdev: unknown cause",
	"none", "flush", "backpressure", "read-trigger", "gc", "secondary")

// String names the cause for reports.
func (c Cause) String() string { return causeNames.String(c) }

// Completion is the full (evaluation-side) record of a finished request.
type Completion struct {
	Req    Request
	Submit simclock.Time
	Done   simclock.Time
	Cause  Cause
}

// Latency returns the request's total service time.
func (c Completion) Latency() simclock.Time { return c.Done - c.Submit }

// TaggedDevice is the evaluation-side view of the simulator: identical to
// Device but additionally reporting the ground-truth cause. Experiments
// and tests use it; the prediction pipeline must not.
type TaggedDevice interface {
	Device
	// SubmitTagged behaves like Submit and also returns the
	// ground-truth cause of any delay the request experienced.
	SubmitTagged(req Request, at simclock.Time) (done simclock.Time, cause Cause)
}
