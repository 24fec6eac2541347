package fleet

import (
	"fmt"

	"ssdcheck/internal/extract"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/ssd"
)

// DeviceState is a device's model plane in wire form: everything a
// remote node needs to take ownership of a diagnosed device over the
// network — the spec it was built from, its current feature baseline
// (diagnosis or the latest re-diagnosis), virtual clock, health and
// model state machines with their logs, cumulative counters, and the
// latency histogram digest.
//
// It is deliberately not the full simulator state: the simulated
// flash array (FTL tables, buffer occupancy, wear) is rebuilt on the
// importing node from the spec's seed plus preconditioning, exactly
// as a fresh diagnosis run would. That trades perfect simulator
// continuity — which the in-process PortableDevice path keeps — for a
// bounded, serializable transfer, the same trade a real deployment
// makes when it re-opens a drive on a new head node and restores only
// the monitoring state. The predictor's sliding accuracy windows
// restart empty on the importing node (cumulative accuracy counters
// carry over); the drift watchdog re-warms within its MinSamples
// window.
type DeviceState struct {
	// Spec is the device's build recipe (ID, preset/config, seed,
	// predictor params, fault plan). Its Features field is cleared on
	// export; Features below is authoritative.
	Spec DeviceSpec `json:"spec"`

	// Features is the current feature baseline — the startup diagnosis
	// or the most recent successful re-diagnosis.
	Features *extract.Features `json:"features"`

	// Clock is the device's virtual time at export.
	Clock simclock.Time `json:"clock_ns"`

	// Seq is the routed-request count (including rejections) driving
	// trace sampling and transition sequence numbers.
	Seq int64 `json:"seq"`

	Health      Health      `json:"health"`
	ModelHealth ModelHealth `json:"model_health"`

	// Counters are the cumulative per-device tallies.
	Counters Counters `json:"counters"`

	// Latency is the device's latency histogram digest; buckets merge
	// into the importing node's histogram so percentiles survive the
	// move.
	Latency obs.HistogramSnapshot `json:"latency"`

	// FallbackServed and Rediags are the model-health machine's
	// counters beyond Counters.
	FallbackServed int64 `json:"fallback_served"`
	Rediags        int   `json:"rediags"`

	HealthLog []HealthTransition `json:"health_log,omitempty"`
	ModelLog  []ModelTransition  `json:"model_log,omitempty"`
}

// Validate reports a descriptive error for an unusable state.
func (st *DeviceState) Validate() error {
	if st == nil {
		return fmt.Errorf("fleet: nil device state")
	}
	if st.Spec.ID == "" {
		return fmt.Errorf("fleet: device state with no ID")
	}
	if st.Features == nil {
		return fmt.Errorf("fleet: device state %q carries no features", st.Spec.ID)
	}
	if err := st.Features.Validate(); err != nil {
		return fmt.Errorf("fleet: device state %q: %w", st.Spec.ID, err)
	}
	if st.Spec.Config == nil {
		if _, err := ssd.Preset(st.Spec.Preset, st.Spec.Seed); err != nil {
			return fmt.Errorf("fleet: device state %q: %w", st.Spec.ID, err)
		}
	} else if err := st.Spec.Config.Validate(); err != nil {
		return fmt.Errorf("fleet: device state %q: %w", st.Spec.ID, err)
	}
	return nil
}

// Export captures a detached device's model plane in wire form. The
// handle stays live — Export reads, it does not consume — so a failed
// transfer can still fall back to a local Attach.
func (p *PortableDevice) Export() (*DeviceState, error) {
	if p == nil || p.md == nil {
		return nil, fmt.Errorf("fleet: export of nil or spent device handle")
	}
	md := p.md
	spec := md.spec
	spec.Features = nil
	spec.Shard = 0
	st := &DeviceState{
		Spec:     spec,
		Features: md.feats,
		Clock:    md.now,
	}
	md.mu.Lock()
	st.Seq = md.seq
	st.Health = md.health
	st.ModelHealth = md.modelHealth
	st.Counters = md.counters()
	st.Latency = md.stats.lat
	st.FallbackServed = md.fallbackServed
	st.Rediags = md.rediags
	st.HealthLog = append([]HealthTransition(nil), md.translog...)
	st.ModelLog = append([]ModelTransition(nil), md.modelLog...)
	md.mu.Unlock()
	return st, nil
}

// ExportDevice detaches a device and returns its model plane in wire
// form — the node-side half of a networked device migration. The
// device is gone from this manager on success; the caller owns
// delivering the state to its new home.
func (m *Manager) ExportDevice(id string) (*DeviceState, error) {
	pd, err := m.Detach(id)
	if err != nil {
		return nil, err
	}
	return pd.Export()
}

// ImportDevice rebuilds a device from its wire state and attaches it
// to this fleet: the simulator is reconstructed from the spec's seed
// (preconditioned under this manager's configuration), the predictor
// from the carried features, and the health/model machines, counters,
// logs, and latency digest are restored. The device's virtual clock
// resumes from the carried value when it is ahead of the rebuilt
// simulator's.
func (m *Manager) ImportDevice(st *DeviceState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrManagerClosed
	}
	if _, dup := m.devs[st.Spec.ID]; dup {
		m.mu.RUnlock()
		return fmt.Errorf("fleet: import: duplicate device ID %q", st.Spec.ID)
	}
	cfg := m.cfg
	m.mu.RUnlock()

	spec := st.Spec
	spec.Features = st.Features
	dcfg := ssd.Config{}
	if spec.Config != nil {
		dcfg = *spec.Config
	} else {
		var err error
		dcfg, err = ssd.Preset(spec.Preset, spec.Seed)
		if err != nil {
			return fmt.Errorf("fleet: import %q: %w", spec.ID, err)
		}
	}
	dev, err := ssd.New(dcfg)
	if err != nil {
		return fmt.Errorf("fleet: import %q: %w", spec.ID, err)
	}

	// Attach registers the device's series in this manager's registry.
	md := &managedDevice{
		id: spec.ID, name: dev.Name(), spec: spec, dev: dev,
		rec: cfg.Recorder,
	}
	if spec.Faults != nil {
		inj, err := faults.New(dev, *spec.Faults)
		if err != nil {
			return fmt.Errorf("fleet: import %q: %w", spec.ID, err)
		}
		inj.SetArmed(false)
		md.inj = inj
		md.dev = inj
		md.fallible = inj
	}
	// init preconditions the rebuilt simulator and constructs the
	// predictor from the carried features (no probing: Features is set).
	// The device is not yet shared, so running it on this goroutine is
	// as safe as New's per-shard init.
	if err := md.init(cfg); err != nil {
		return fmt.Errorf("fleet: import %q: %w", spec.ID, err)
	}
	if md.inj != nil {
		md.inj.SetArmed(true)
	}

	if st.Clock > md.now {
		md.now = st.Clock
	}
	md.mu.Lock()
	md.seq = st.Seq
	md.health = st.Health
	md.modelHealth = st.ModelHealth
	md.fallbackServed = st.FallbackServed
	md.rediags = st.Rediags
	md.translog = append([]HealthTransition(nil), st.HealthLog...)
	md.modelLog = append([]ModelTransition(nil), st.ModelLog...)
	restoreTallies(&md.stats, st)
	// Folding the carried digest through a Histogram recounts Count
	// from its buckets, so a wire form that disagrees cannot skew it.
	var lat obs.Histogram
	lat.AddSnapshot(st.Latency)
	md.stats.lat = lat.Snapshot()
	md.publishLocked()
	md.mu.Unlock()

	return m.Attach(&PortableDevice{md: md})
}

// restoreTallies maps the wire counters back onto the internal tally
// array. The transition tallies are derived from the carried logs —
// they are not in the exported Counters, but the logs are complete.
func restoreTallies(d *deviceStats, st *DeviceState) {
	for k, t := range tallies {
		if t.field != nil {
			d.vals[k] = *t.field(&st.Counters)
		}
	}
	d.vals[statTransitions] = int64(len(st.HealthLog))
	d.vals[statModelTransitions] = int64(len(st.ModelLog))
}
