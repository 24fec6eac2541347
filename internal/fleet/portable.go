package fleet

import (
	"fmt"

	"ssdcheck/internal/obs"
)

// PortableDevice is a fleet member in transit between managers: the
// device simulator, its predictor, virtual clock, health and model
// state machines, and cumulative stats, detached from any shard. The
// cluster layer moves these between nodes on rebalancing and failover
// — the moral equivalent of re-opening a drive's state from a shared
// store on its new host. A handle is single-use: Attach consumes it.
type PortableDevice struct {
	md *managedDevice
}

// Detach removes a device from the fleet and returns it as a portable
// handle. It blocks until the owning shard has relinquished the device,
// so the caller holds the only live reference on return. The device's
// metric series are withdrawn from this manager's registry; its
// cumulative tallies, latency histogram and transition logs travel with
// the handle and republish wherever it attaches.
func (m *Manager) Detach(id string) (*PortableDevice, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrManagerClosed
	}
	md, ok := m.devs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("device %q: %w", id, ErrUnknownDevice)
	}
	delete(m.devs, id)
	for i, d := range m.order {
		if d == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	// The barrier completes once every operation queued on the shard
	// before it, and so every last touch of the device, has.
	op := m.enqueueCtl(md.shard, nil)
	m.mu.Unlock()
	m.waitCtl(op)

	m.cfg.Registry.DropSeries(obs.Label{Name: "device", Value: id})
	return &PortableDevice{md: md}, nil
}

// Attach adds a detached device to this fleet, assigning it to a shard
// round-robin. The device's series re-register in this manager's
// registry and read its cumulative tallies and histograms, and this
// manager's policies govern it from here on. The handle is spent
// afterwards.
func (m *Manager) Attach(pd *PortableDevice) error {
	if pd == nil || pd.md == nil {
		return fmt.Errorf("fleet: attach of nil or spent device handle")
	}
	md := pd.md
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrManagerClosed
	}
	if _, dup := m.devs[md.id]; dup {
		m.mu.Unlock()
		return fmt.Errorf("fleet: attach: duplicate device ID %q", md.id)
	}
	// The device is quiescent, so pointing it at this manager's shard
	// and observability needs no lock of its own.
	sh := m.attachAuto % len(m.shards)
	m.attachAuto++
	md.shard = sh
	md.rec = m.cfg.Recorder
	md.pr.SetRecorder(m.cfg.Recorder, md.id)
	md.bindObs(m.cfg.Registry)
	m.devs[md.id] = md
	m.order = append(m.order, md.id)
	op := m.enqueueCtl(sh, nil)
	m.mu.Unlock()
	m.waitCtl(op)
	pd.md = nil
	return nil
}
