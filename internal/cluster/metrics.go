package cluster

import (
	"io"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/obs"
)

// NodeMetrics is one member's slice of the cluster aggregate.
type NodeMetrics struct {
	Node    string        `json:"node"`
	Health  fleet.Health  `json:"health"`
	InRing  bool          `json:"in_ring"`
	Devices int           `json:"devices"`
	Fleet   fleet.Metrics `json:"fleet"`
}

// Metrics is the cluster-wide aggregate: per-node fleet metrics summed
// the same way the fleet sums per-device ones. Accuracy figures come
// from the nodes' AccuracyCounters (in-service, non-fallback devices
// only), and latency percentiles from the merge of every node's
// histogram buckets — no samples cross the wire, only mergeable
// digests, so the merged view equals what one big fleet would report.
type Metrics struct {
	Nodes            int   `json:"nodes"`
	InService        int   `json:"in_service"`
	Devices          int   `json:"devices"`
	UnhealthyDevices int   `json:"unhealthy_devices"`
	FallbackModels   int   `json:"fallback_models"`
	Round            int64 `json:"round"`
	Moves            int64 `json:"placement_moves"`

	Counters         fleet.Counters `json:"counters"`
	AccuracyCounters fleet.Counters `json:"accuracy_counters"`
	HLRate           float64        `json:"hl_rate"`
	HLAccuracy       float64        `json:"hl_accuracy"`
	NLAccuracy       float64        `json:"nl_accuracy"`

	Latency fleet.LatencySummary `json:"latency"`

	PerNode []NodeMetrics `json:"per_node"`
}

// Metrics returns the merged cluster view. Stopped-but-unevacuated
// nodes still contribute: their device state plane is alive even while
// their serving path is down, and counting it is what keeps the merged
// totals equal to an equivalent single-fleet run.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()

	devCount := make(map[string]int, len(c.members))
	for _, n := range c.placement {
		devCount[n]++
	}

	var agg, acc fleet.Counters
	var lat obs.HistogramSnapshot
	out := Metrics{
		Nodes:     len(c.order),
		InService: int(c.inServiceLocked()),
		Devices:   len(c.devOrder),
		Round:     c.round,
		Moves:     c.cMoves.Value(),
	}
	for _, id := range c.order {
		mb := c.members[id]
		m := mb.node.Manager()
		if m == nil {
			// Remote member: its fleet lives in another process and
			// renders through that process's own /metrics.
			out.PerNode = append(out.PerNode, NodeMetrics{
				Node:    id,
				Health:  mb.health,
				InRing:  c.ring.Has(id),
				Devices: devCount[id],
			})
			continue
		}
		fm := m.Metrics()
		agg = agg.Add(fm.Counters)
		acc = acc.Add(fm.AccuracyCounters)
		lat.Merge(m.LatencyDigest())
		out.UnhealthyDevices += fm.UnhealthyDevices
		out.FallbackModels += fm.FallbackModels
		out.PerNode = append(out.PerNode, NodeMetrics{
			Node:    id,
			Health:  mb.health,
			InRing:  c.ring.Has(id),
			Devices: devCount[id],
			Fleet:   fm,
		})
	}
	out.Counters = agg
	out.AccuracyCounters = acc
	out.HLRate = agg.HLRate()
	out.HLAccuracy = acc.HLAccuracy()
	out.NLAccuracy = acc.NLAccuracy()
	out.Latency = fleet.Summarize(lat)
	return out
}

// WritePrometheus renders the cluster's merged exposition: the
// coordinator's own series unlabeled, every node's registry with a
// node="<id>" label injected, families deduplicated in first-seen
// order. Every gauge reads its owner's state as it renders, so the
// exposition is current without a refresh call first.
func (c *Coordinator) WritePrometheus(w io.Writer) error {
	c.mu.Lock()
	sources := make([]obs.RegistrySource, 0, len(c.order)+1)
	sources = append(sources, obs.RegistrySource{Name: "", Reg: c.reg})
	for _, id := range c.order {
		mb := c.members[id]
		m := mb.node.Manager()
		if m == nil || mb.node.Registry() == nil {
			continue // remote member: scraped from its own process
		}
		sources = append(sources, obs.RegistrySource{Name: id, Reg: mb.node.Registry()})
	}
	c.mu.Unlock()
	return obs.WritePrometheusMerged(w, "node", sources)
}
