package fleet

import (
	"time"

	"ssdcheck/internal/simclock"
)

// SteeringSnapshot is the read-only per-device signal bundle a
// fleet-level scheduler needs to place I/O: the resilience and
// model-health states, the predictor's device-level read outlook, and
// the device's observed high-latency streak. It is deliberately small —
// consumers like the erasure-coded volume (internal/ecvol) and the
// volume-manager write steerer (internal/lvm) rank whole devices, not
// LBAs — and deliberately cached: every field is refreshed by the
// owning shard after each device run (the requests of one batch for
// one device, served under one hold of its lock), so reading it never
// touches the (non-thread-safe) predictor or simulator. Readers take
// that same lock, so they never see a run half-served.
type SteeringSnapshot struct {
	// ID names the device.
	ID string `json:"id"`

	// Health and ModelHealth are the device's positions in the two
	// state machines.
	Health      Health      `json:"health"`
	ModelHealth ModelHealth `json:"model_health"`

	// Available reports whether the device currently accepts requests
	// (everything but quarantined; a recovering device serves its
	// probation traffic).
	Available bool `json:"available"`

	// Conservative reports whether the device's predictions are the
	// static always-NL fallback (model health fallback/rediagnosing) —
	// its PredictedHL=false then carries no information, and schedulers
	// should deprioritize it.
	Conservative bool `json:"conservative"`

	// PredictedHL is the model's device-level read outlook: whether a
	// nominal one-page read would be classified high-latency on the
	// worst of the device's internal volumes right now (a pending GC or
	// flush window on any volume flips it). ReadEET is the matching
	// worst-case estimated latency.
	PredictedHL bool          `json:"predicted_hl"`
	ReadEET     time.Duration `json:"read_eet_ns"`

	// HLStreak counts consecutive served completions observed
	// high-latency (or timeout-class). It catches irregularity the
	// model does not cover — injected latency storms, unmodeled
	// slowdowns — with one request of lag: the streak opens on the
	// first slow completion and closes on the first clean one.
	HLStreak int `json:"hl_streak"`

	// Clock is the device's virtual time.
	Clock simclock.Time `json:"clock_ns"`
}

// Risky reports whether a read placed on the device right now is
// likely to stall: the model predicts HL, or the device is mid
// high-latency streak (storm, unmodeled slowdown). Unavailability is
// separate — check Available.
func (s SteeringSnapshot) Risky() bool {
	return s.PredictedHL || s.HLStreak > 0
}

// steeringLocked assembles the snapshot from cached state. Callers
// hold md.mu.
func (md *managedDevice) steeringLocked() SteeringSnapshot {
	return SteeringSnapshot{
		ID:           md.id,
		Health:       md.health,
		ModelHealth:  md.modelHealth,
		Available:    md.health != Quarantined,
		Conservative: md.modelHealth.Conservative(),
		PredictedHL:  md.readRisk.HL,
		ReadEET:      md.readRisk.EET,
		HLStreak:     md.hlStreak,
		Clock:        md.clock,
	}
}

// SteeringAll returns every device's steering snapshot in membership
// order. It is the bulk form schedulers poll between requests; unlike
// Devices it copies no counters, logs or histograms.
func (m *Manager) SteeringAll() []SteeringSnapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]SteeringSnapshot, 0, len(m.order))
	for _, id := range m.order {
		md := m.devs[id]
		md.mu.Lock()
		out = append(out, md.steeringLocked())
		md.mu.Unlock()
	}
	return out
}

// SteeringInto fills dst[i] with the steering snapshot of ids[i], all
// under one membership read lock. It is the allocation-free form of
// SteeringAll for a scheduler that polls a fixed member list between
// requests: dst is the caller's long-lived view. An ID the fleet does
// not hold (detached, or never attached) leaves its slot untouched, so
// that slot keeps the last snapshot it was given. len(dst) must be at
// least len(ids).
func (m *Manager) SteeringInto(ids []string, dst []SteeringSnapshot) {
	dst = dst[:len(ids)]
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i, id := range ids {
		md, ok := m.devs[id]
		if !ok {
			continue
		}
		md.mu.Lock()
		dst[i] = md.steeringLocked()
		md.mu.Unlock()
	}
}
