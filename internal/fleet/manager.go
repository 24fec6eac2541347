package fleet

import (
	"fmt"
	"strconv"
	"sync"

	"ssdcheck/internal/faults"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/ssd"
)

// Manager owns a fleet of device+predictor pairs sharded across a
// bounded worker pool. Construct one with New; submit work with Submit
// and SubmitBatch; read per-device and fleet-wide stats at any time
// with Device, Devices, Metrics, DeviceHealth and HealthLog; stop it
// with Close.
//
// Manager is safe for concurrent use. The devices and predictors it
// owns are not — that is the point: each lives on exactly one shard
// goroutine, so the sequential single-device code runs unchanged and
// unlocked.
type Manager struct {
	cfg    Config
	shards []*shard
	devs   map[string]*managedDevice
	order  []string // device IDs in configuration order

	runWG sync.WaitGroup

	closeOnce sync.Once
	// mu guards closed vs. in-flight ring enqueues, and — since devices
	// can Attach and Detach at runtime — the devs map and order slice.
	// Lock order is m.mu before md.mu.
	mu     sync.RWMutex
	closed bool

	// opPool and dispatchPool recycle the ingress bookkeeping (per-shard
	// operations, per-batch fan-out tables) so the submit→result round
	// trip allocates nothing in steady state.
	opPool       sync.Pool
	dispatchPool sync.Pool

	// attachAuto round-robins runtime-attached devices across shards,
	// mirroring what New does for spec.Shard == 0.
	attachAuto int
}

// New builds the fleet: it constructs every device (wrapping it in a
// fault injector when the spec asks for one), preconditions and
// diagnoses the ones without preloaded features (in parallel, one
// worker per shard), constructs the predictors, arms the injectors,
// and starts the shard goroutines. On error everything already started
// is torn down.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	m := &Manager{
		cfg:  cfg,
		devs: make(map[string]*managedDevice, len(cfg.Devices)),
	}
	reg := cfg.Registry
	reg.GaugeFunc("ssdcheck_fleet_devices", "Configured fleet size.", func() int64 { return int64(m.Metrics().Devices) })
	reg.GaugeFunc("ssdcheck_fleet_shards", "Worker-pool size.", func() int64 { return int64(cfg.Shards) })
	reg.GaugeFunc("ssdcheck_fleet_unhealthy_devices", "Devices currently quarantined or recovering.",
		func() int64 { return int64(m.Metrics().UnhealthyDevices) })
	reg.GaugeFunc("ssdcheck_fleet_fallback_models", "Devices currently serving conservative fallback predictions.",
		func() int64 { return int64(m.Metrics().FallbackModels) })
	m.opPool.New = func() any { return &shardOp{} }
	m.dispatchPool.New = func() any { return &dispatch{} }
	for i := 0; i < cfg.Shards; i++ {
		lbl := obs.Label{Name: "shard", Value: strconv.Itoa(i)}
		sh := &shard{id: i, q: newIngressRing(cfg.QueueDepth), wake: make(chan struct{}, 1)}
		reg.GaugeFunc("fleet_ingress_queue_depth", "Operations queued in the shard's ingress ring.",
			func() int64 { return int64(sh.q.depth()) }, lbl)
		sh.waitH = reg.HistogramScaled("fleet_ingress_wait_us",
			"Time operations spend queued in the shard's ingress ring, in microseconds.", 1e3, lbl)
		m.shards = append(m.shards, sh)
	}

	auto := 0
	byShard := make([][]*managedDevice, cfg.Shards)
	for _, spec := range cfg.Devices {
		dcfg := ssd.Config{}
		if spec.Config != nil {
			dcfg = *spec.Config
		} else {
			var err error
			dcfg, err = ssd.Preset(spec.Preset, spec.Seed)
			if err != nil {
				return nil, fmt.Errorf("fleet: device %q: %w", spec.ID, err)
			}
		}
		dev, err := ssd.New(dcfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %q: %w", spec.ID, err)
		}
		sh := spec.Shard - 1
		if spec.Shard == 0 {
			sh = auto % cfg.Shards
			auto++
		}
		md := &managedDevice{
			id: spec.ID, name: dev.Name(), spec: spec, shard: sh, dev: dev,
			rec: cfg.Recorder,
		}
		md.bindObs(cfg.Registry)
		if spec.Faults != nil {
			inj, err := faults.New(dev, *spec.Faults)
			if err != nil {
				return nil, fmt.Errorf("fleet: device %q: %w", spec.ID, err)
			}
			inj.SetArmed(false) // setup traffic stays fault-free
			md.inj = inj
			md.dev = inj
			md.fallible = inj
		}
		m.devs[spec.ID] = md
		m.order = append(m.order, spec.ID)
		byShard[sh] = append(byShard[sh], md)
	}

	// Startup diagnosis runs with shard-level parallelism: each shard's
	// devices initialize sequentially on one worker, so a per-device
	// init is as deterministic as it is in the single-device pipeline.
	errs := make([]error, cfg.Shards)
	var initWG sync.WaitGroup
	for i, devs := range byShard {
		initWG.Add(1)
		go func(i int, devs []*managedDevice) {
			defer initWG.Done()
			for _, md := range devs {
				if err := md.init(cfg); err != nil {
					errs[i] = fmt.Errorf("fleet: device %q: diagnosis: %w", md.id, err)
					return
				}
			}
		}(i, devs)
	}
	initWG.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Arm the injectors now that setup traffic is done: fault
	// schedules count serving requests. The goroutine-start edges
	// below publish these writes to the shards.
	for _, id := range m.order {
		if md := m.devs[id]; md.inj != nil {
			md.inj.SetArmed(true)
		}
	}

	m.runWG.Add(cfg.Shards)
	for _, sh := range m.shards {
		go sh.run(&m.runWG, &m.cfg)
	}
	return m, nil
}

// ProbeQuarantined runs one recovery probe on every quarantined device,
// in membership order, each on its owning shard, and waits for the
// sweep to finish. It is the periodic complement to the deterministic
// rejection-count probe, for a device no traffic reaches: the library
// keeps no clock of its own, so the caller sets the schedule
// (ssdcheckd's -probe-interval ticker). After Close it returns
// ErrManagerClosed at once.
func (m *Manager) ProbeQuarantined() error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrManagerClosed
	}
	ops := make([]*shardOp, len(m.order))
	for i, id := range m.order {
		md := m.devs[id]
		ops[i] = m.enqueueCtl(md.shard, md.tryRecover)
	}
	m.mu.RUnlock()
	for _, op := range ops {
		m.waitCtl(op)
	}
	return nil
}

// Close stops accepting new work, lets every shard drain its ingress
// ring, and waits for the shard
// goroutines to exit. It is idempotent and safe for concurrent use:
// every caller — first or not — returns only after the fleet has fully
// drained.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()

		// Every producer enqueues under m.mu and checks closed first,
		// so after the write lock above the rings can only shrink. Flip
		// the shards to closing and wake any parked consumer; each
		// drains what remains and exits. A consumer about to park
		// re-checks closing before blocking, so the shutdown wake
		// cannot be lost.
		for _, sh := range m.shards {
			sh.closing.Store(true)
			select {
			case sh.wake <- struct{}{}:
			default:
			}
		}
	})
	m.runWG.Wait()
}

// Shards returns the worker-pool size.
func (m *Manager) Shards() int { return m.cfg.Shards }

// DeviceIDs returns the fleet's device IDs in membership order
// (configuration order, with runtime attaches appended).
func (m *Manager) DeviceIDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.order...)
}

// Device returns a stats snapshot of one device.
func (m *Manager) Device(id string) (DeviceSnapshot, bool) {
	m.mu.RLock()
	md, ok := m.devs[id]
	m.mu.RUnlock()
	if !ok {
		return DeviceSnapshot{}, false
	}
	return md.snapshot(), true
}

// Devices returns stats snapshots of every device in membership
// order.
func (m *Manager) Devices() []DeviceSnapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]DeviceSnapshot, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.devs[id].snapshot())
	}
	return out
}

// DeviceHealth returns one device's resilience view: health state,
// anomaly streaks, and the full transition log.
func (m *Manager) DeviceHealth(id string) (HealthReport, bool) {
	m.mu.RLock()
	md, ok := m.devs[id]
	m.mu.RUnlock()
	if !ok {
		return HealthReport{}, false
	}
	md.mu.Lock()
	defer md.mu.Unlock()
	return HealthReport{
		ID:                      md.id,
		Health:                  md.health,
		ConsecutiveErrors:       md.consecErr,
		ConsecutiveTimeouts:     md.consecSlow,
		RejectedSinceQuarantine: md.rejections,
		Probes:                  md.stats.vals[statProbes],
		Transitions:             append([]HealthTransition(nil), md.translog...),
	}, true
}

// DeviceModel returns one device's model view: model-health state,
// sliding accuracy windows, fallback/re-diagnosis counters, and the
// full model-transition log.
func (m *Manager) DeviceModel(id string) (ModelReport, bool) {
	m.mu.RLock()
	md, ok := m.devs[id]
	m.mu.RUnlock()
	if !ok {
		return ModelReport{}, false
	}
	md.mu.Lock()
	defer md.mu.Unlock()
	return ModelReport{
		ID:               md.id,
		ModelHealth:      md.modelHealth,
		PredictorEnabled: md.enabled,
		HLAccuracy:       md.driftRep.HLAccuracy(),
		NLAccuracy:       md.driftRep.NLAccuracy(),
		HLWindow:         md.driftRep.HLSeen,
		DistResets:       md.driftRep.DistResets,
		FallbackServed:   md.fallbackServed,
		Rediags:          md.rediags,
		Transitions:      append([]ModelTransition(nil), md.modelLog...),
	}, true
}

// ModelLog returns every device's model-transition log in
// configuration order. Like HealthLog, the marshaled log is
// byte-identical across runs and shard counts given deterministic
// per-device request streams.
func (m *Manager) ModelLog() []DeviceModelLog {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]DeviceModelLog, 0, len(m.order))
	for _, id := range m.order {
		md := m.devs[id]
		md.mu.Lock()
		out = append(out, DeviceModelLog{
			ID:          md.id,
			ModelHealth: md.modelHealth,
			Transitions: append([]ModelTransition(nil), md.modelLog...),
		})
		md.mu.Unlock()
	}
	return out
}

// Rediagnose forces a full re-diagnosis of one device, synchronously,
// on its owning shard — the operator path behind the daemon's POST
// /v1/devices/{id}/rediagnose. It returns once the probe finishes: nil
// when a fresh predictor was hot-swapped in, an error when the device
// is unknown, quarantined, or the re-diagnosis failed (the device then
// serves conservative fallback predictions).
func (m *Manager) Rediagnose(id string) error {
	var err error
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrManagerClosed
	}
	md, ok := m.devs[id]
	if !ok {
		m.mu.RUnlock()
		return fmt.Errorf("device %q: %w", id, ErrUnknownDevice)
	}
	op := m.enqueueCtl(md.shard, func(cfg *Config) { err = md.forceRediag(cfg) })
	m.mu.RUnlock()
	m.waitCtl(op)
	return err
}

// HealthLog returns every device's health-transition log in
// configuration order. With deterministic per-device request streams
// and fault schedules, the marshaled log is byte-identical across
// runs and shard counts.
func (m *Manager) HealthLog() []DeviceHealthLog {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]DeviceHealthLog, 0, len(m.order))
	for _, id := range m.order {
		md := m.devs[id]
		md.mu.Lock()
		out = append(out, DeviceHealthLog{
			ID:          md.id,
			Health:      md.health,
			Transitions: append([]HealthTransition(nil), md.translog...),
		})
		md.mu.Unlock()
	}
	return out
}

// Metrics returns the fleet-wide aggregate: summed counters and
// latency percentiles computed from the merge of every device's
// histogram buckets (no samples are copied or sorted). Quarantined
// (and mid-probe) devices still contribute their counters and
// latencies, but are excluded from the fleet accuracy figures and
// counted in the UnhealthyDevices gauge instead. The registry's
// fleet-level gauges read their values from Metrics when rendered.
func (m *Manager) Metrics() Metrics {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var c, acc Counters
	var merged obs.HistogramSnapshot
	unhealthy, fallback := 0, 0
	for _, id := range m.order {
		md := m.devs[id]
		md.mu.Lock()
		devCounters := md.counters()
		c = c.Add(devCounters)
		inFallback := md.modelHealth.Conservative()
		if inFallback {
			fallback++
		}
		if md.health == Quarantined || md.health == Recovering {
			unhealthy++
		} else if !inFallback {
			// Fallback devices serve deliberately conservative
			// predictions; including them would smear the fleet
			// accuracy figures with known-degraded models.
			acc = acc.Add(devCounters)
		}
		merged.Merge(md.stats.lat)
		md.mu.Unlock()
	}
	return Metrics{
		Devices:          len(m.order),
		Shards:           m.cfg.Shards,
		UnhealthyDevices: unhealthy,
		FallbackModels:   fallback,
		Counters:         c,
		AccuracyCounters: acc,
		HLRate:           c.HLRate(),
		HLAccuracy:       acc.HLAccuracy(),
		NLAccuracy:       acc.NLAccuracy(),
		Latency:          Summarize(merged),
	}
}

// LatencyDigest returns the merge of every device's latency histogram
// buckets — the fleet's raw latency material, in mergeable form. The
// cluster layer combines these across nodes to compute cluster-wide
// percentiles without shipping samples.
func (m *Manager) LatencyDigest() obs.HistogramSnapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var merged obs.HistogramSnapshot
	for _, id := range m.order {
		md := m.devs[id]
		md.mu.Lock()
		merged.Merge(md.stats.lat)
		md.mu.Unlock()
	}
	return merged
}

// Registry returns the metrics registry the fleet records into — the
// one passed in Config.Registry, or the private default. The daemon
// serves it at GET /metrics.
func (m *Manager) Registry() *obs.Registry { return m.cfg.Registry }
