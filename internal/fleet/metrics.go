package fleet

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/core"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
)

// statKind indexes one per-device tally in deviceStats.
type statKind int

const (
	statReads statKind = iota
	statWrites
	statTrims
	statPredictedHL // requests flagged HL before submission
	statObservedHL  // requests measured HL
	statHLHits      // observed-HL requests that were predicted HL
	statNLHits      // observed-NL requests that were predicted NL
	statBytes       // payload bytes moved

	// Resilience tallies. reads+writes+trims counts only served
	// completions; errors and rejected cover the other ways a routed
	// request ends.
	statErrors      // exhausted-retry and fail-stop failures
	statRejected    // bounced off a quarantined device
	statRetries     // transient-error retries consumed
	statTimeouts    // served completions at/over the request deadline
	statProbes      // recovery-probe attempts
	statTransitions // health state-machine edges taken

	// Model-health tallies.
	statFallback         // completions served with conservative predictions
	statRediags          // completed re-diagnosis attempts
	statModelTransitions // model-health state-machine edges taken

	numStats
)

// tallies describes every per-device tally once, indexed by statKind:
// the registry series that reads it, in registration order (op, when
// set, labels a split of ssdcheck_requests_total), and its Counters
// field. The two transition tallies have no field; Counters leaves
// them to the logs.
var tallies = [numStats]struct {
	name, help, op string
	field          func(*Counters) *int64
}{
	statReads:            {reqSeries, reqHelp, "read", func(c *Counters) *int64 { return &c.Reads }},
	statWrites:           {reqSeries, reqHelp, "write", func(c *Counters) *int64 { return &c.Writes }},
	statTrims:            {reqSeries, reqHelp, "trim", func(c *Counters) *int64 { return &c.Trims }},
	statPredictedHL:      {"ssdcheck_predicted_hl_total", "Requests predicted high-latency before submission.", "", func(c *Counters) *int64 { return &c.PredictedHL }},
	statObservedHL:       {"ssdcheck_observed_hl_total", "Requests measured high-latency.", "", func(c *Counters) *int64 { return &c.ObservedHL }},
	statHLHits:           {"ssdcheck_hl_hits_total", "Observed-HL requests that were predicted HL.", "", func(c *Counters) *int64 { return &c.HLHits }},
	statNLHits:           {"ssdcheck_nl_hits_total", "Observed-NL requests that were predicted NL.", "", func(c *Counters) *int64 { return &c.NLHits }},
	statBytes:            {"ssdcheck_bytes_total", "Payload bytes moved.", "", func(c *Counters) *int64 { return &c.Bytes }},
	statErrors:           {"ssdcheck_request_errors_total", "Requests failed after exhausting retries, or fail-stop.", "", func(c *Counters) *int64 { return &c.Errors }},
	statRejected:         {"ssdcheck_requests_rejected_total", "Requests bounced off a quarantined device.", "", func(c *Counters) *int64 { return &c.Rejected }},
	statRetries:          {"ssdcheck_request_retries_total", "Transient-error retries consumed.", "", func(c *Counters) *int64 { return &c.Retries }},
	statTimeouts:         {"ssdcheck_request_timeouts_total", "Served completions at or over the request deadline.", "", func(c *Counters) *int64 { return &c.Timeouts }},
	statProbes:           {"ssdcheck_recovery_probes_total", "Recovery-probe attempts.", "", func(c *Counters) *int64 { return &c.Probes }},
	statTransitions:      {"ssdcheck_health_transitions_total", "Health state-machine edges taken.", "", nil},
	statFallback:         {"ssdcheck_fallback_served_total", "Completions served with conservative fallback predictions.", "", func(c *Counters) *int64 { return &c.Fallback }},
	statRediags:          {"ssdcheck_rediags_total", "Completed re-diagnosis attempts.", "", func(c *Counters) *int64 { return &c.Rediags }},
	statModelTransitions: {"ssdcheck_model_transitions_total", "Model-health state-machine edges taken.", "", nil},
}

const reqSeries, reqHelp = "ssdcheck_requests_total", "Served requests by device and operation."

// deviceStats is the streaming per-device tally: plain values written
// by the owning shard under the managedDevice mutex, so a served
// request pays no atomic operations at all. The registry keeps no copy;
// its per-device series read these fields under the same mutex when
// they are rendered (see bindObs).
type deviceStats struct {
	vals [numStats]int64
	// lat holds every served completion's latency; percentiles are
	// computed from its buckets, identically at any shard count.
	lat obs.HistogramSnapshot
}

func (d *deviceStats) record(req blockdev.Request, predHL bool, lat time.Duration, obsHL bool) {
	switch req.Op {
	case blockdev.Read:
		d.vals[statReads]++
	case blockdev.Write:
		d.vals[statWrites]++
	case blockdev.Trim:
		d.vals[statTrims]++
	}
	if predHL {
		d.vals[statPredictedHL]++
	}
	if obsHL {
		d.vals[statObservedHL]++
		if predHL {
			d.vals[statHLHits]++
		}
	} else if !predHL {
		d.vals[statNLHits]++
	}
	d.vals[statBytes] += int64(req.Bytes())
	d.lat.Observe(lat)
}

// requests returns the served-completion count (every record() call).
func (d *deviceStats) requests() int64 {
	return d.vals[statReads] + d.vals[statWrites] + d.vals[statTrims]
}

// LatencySummary is a percentile digest computed from the latency
// histogram's buckets — it covers every served request, not a window,
// and is identical across shard counts.
type LatencySummary struct {
	Samples int           `json:"samples"`
	Mean    time.Duration `json:"mean_ns"`
	P50     time.Duration `json:"p50_ns"`
	P90     time.Duration `json:"p90_ns"`
	P99     time.Duration `json:"p99_ns"`
	P999    time.Duration `json:"p999_ns"`
	Max     time.Duration `json:"max_ns"`
}

// Summarize digests a latency histogram snapshot into the standard
// percentile summary. Exported so the cluster layer can summarize a
// cross-node merged snapshot with the same definition the fleet uses.
func Summarize(s obs.HistogramSnapshot) LatencySummary {
	return LatencySummary{
		Samples: int(s.Count),
		Mean:    s.Mean(),
		P50:     s.Quantile(0.50),
		P90:     s.Quantile(0.90),
		P99:     s.Quantile(0.99),
		P999:    s.Quantile(0.999),
		Max:     s.MaxValue(),
	}
}

// Counters is the exact-count half of a stats snapshot (these cover
// every request ever processed).
type Counters struct {
	Requests    int64 `json:"requests"`
	Reads       int64 `json:"reads"`
	Writes      int64 `json:"writes"`
	Trims       int64 `json:"trims"`
	PredictedHL int64 `json:"predicted_hl"`
	ObservedHL  int64 `json:"observed_hl"`
	HLHits      int64 `json:"hl_hits"`
	NLHits      int64 `json:"nl_hits"`
	Bytes       int64 `json:"bytes"`

	// Resilience counters: Requests counts served completions;
	// Errors and Rejected are the failure outcomes, so
	// Requests+Errors+Rejected is every request ever routed here.
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	Retries  int64 `json:"retries"`
	Timeouts int64 `json:"timeouts"`
	Probes   int64 `json:"probes"`

	// Model-health counters: Fallback counts completions served with
	// conservative predictions, Rediags completed re-diagnosis
	// attempts.
	Fallback int64 `json:"fallback"`
	Rediags  int64 `json:"rediags"`
}

// Add returns the element-wise sum — how per-device counters roll up
// into fleet totals, and fleet totals into cluster totals.
func (c Counters) Add(o Counters) Counters {
	c.Requests += o.Requests
	for _, t := range tallies {
		if t.field != nil {
			*t.field(&c) += *t.field(&o)
		}
	}
	return c
}

// HLRate returns the observed high-latency fraction.
func (c Counters) HLRate() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.ObservedHL) / float64(c.Requests)
}

// HLAccuracy returns the share of observed-HL requests that were
// predicted HL (1 when none were observed, matching the predictor's own
// convention).
func (c Counters) HLAccuracy() float64 {
	if c.ObservedHL == 0 {
		return 1
	}
	return float64(c.HLHits) / float64(c.ObservedHL)
}

// NLAccuracy returns the share of observed-NL requests predicted NL.
func (c Counters) NLAccuracy() float64 {
	nl := c.Requests - c.ObservedHL
	if nl == 0 {
		return 1
	}
	return float64(c.NLHits) / float64(nl)
}

// DeviceSnapshot is a point-in-time view of one fleet member.
type DeviceSnapshot struct {
	ID     string `json:"id"`
	Device string `json:"device"` // simulator label
	Preset string `json:"preset,omitempty"`
	Shard  int    `json:"shard"`

	// Health is the device's position in the resilience state machine.
	Health Health `json:"health"`

	// ModelHealth is the device's position in the model-health state
	// machine (see ModelHealth).
	ModelHealth ModelHealth `json:"model_health"`

	Counters   Counters       `json:"counters"`
	HLRate     float64        `json:"hl_rate"`
	HLAccuracy float64        `json:"hl_accuracy"`
	NLAccuracy float64        `json:"nl_accuracy"`
	Latency    LatencySummary `json:"latency"`

	// PredictorEnabled mirrors the calibrator's harmless-disable state.
	PredictorEnabled bool `json:"predictor_enabled"`
	// Model is the predictor's volume-0 model state (buffer counter,
	// EBT, GC interval counter).
	Model core.ModelState `json:"model"`
	// Clock is the device's virtual time.
	Clock simclock.Time `json:"clock_ns"`
}

// Metrics is the fleet-wide aggregate view. The accuracy figures
// cover only devices currently in service; quarantined devices are
// tallied in the UnhealthyDevices gauge instead.
type Metrics struct {
	Devices          int      `json:"devices"`
	Shards           int      `json:"shards"`
	UnhealthyDevices int      `json:"unhealthy_devices"`
	FallbackModels   int      `json:"fallback_models"`
	Counters         Counters `json:"counters"`
	// AccuracyCounters is the subset of Counters behind the accuracy
	// figures — in-service, non-fallback devices only. Exported so the
	// cluster layer can sum it across nodes and recompute merged
	// accuracy exactly.
	AccuracyCounters Counters       `json:"accuracy_counters"`
	HLRate           float64        `json:"hl_rate"`
	HLAccuracy       float64        `json:"hl_accuracy"`
	NLAccuracy       float64        `json:"nl_accuracy"`
	Latency          LatencySummary `json:"latency"` // merged across devices
}

// snapshot captures the device's current stats under its mutex.
func (md *managedDevice) snapshot() DeviceSnapshot {
	md.mu.Lock()
	defer md.mu.Unlock()
	c := md.counters()
	return DeviceSnapshot{
		ID:               md.id,
		Device:           md.name,
		Preset:           md.spec.Preset,
		Shard:            md.shard,
		Health:           md.health,
		ModelHealth:      md.modelHealth,
		Counters:         c,
		HLRate:           c.HLRate(),
		HLAccuracy:       c.HLAccuracy(),
		NLAccuracy:       c.NLAccuracy(),
		Latency:          Summarize(md.stats.lat),
		PredictorEnabled: md.enabled,
		Model:            md.model,
		Clock:            md.clock,
	}
}

// counters converts the internal tally to the exported form.
func (md *managedDevice) counters() Counters {
	c := Counters{Requests: md.stats.requests()}
	for k, t := range tallies {
		if t.field != nil {
			*t.field(&c) = md.stats.vals[k]
		}
	}
	return c
}
