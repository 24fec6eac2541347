package core

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
)

// Params tune the runtime framework. Zero values take defaults.
type Params struct {
	// GCQuantile is the interval-distribution mass at which the GC
	// detector arms (lower = more eager HL prediction).
	GCQuantile float64
	// OverheadAlpha is the EWMA weight of overhead calibration.
	OverheadAlpha float64
	// NLReadBase/NLWriteBase are baseline NL service estimates used in
	// EET arithmetic before calibration warms up.
	NLReadBase, NLWriteBase time.Duration
	// DisableBelowHL turns prediction off when the sliding HL accuracy
	// drops under this after DisableMinSamples HL observations.
	DisableBelowHL    float64
	DisableMinSamples int
	// ResetDistBelowHL resets the GC history (one calibration step
	// before disabling) under this HL accuracy.
	ResetDistBelowHL float64

	// Ablation switches (all default off = full SSDcheck). They back
	// the ablation experiments: the paper credits the allocation-volume
	// model for D/E's accuracy and the calibrator for recovering from
	// model discrepancies (§V-B).

	// IgnoreVolumes collapses the volume selector to a single volume
	// model regardless of extracted bits.
	IgnoreVolumes bool
	// NoCalibration freezes the model after construction: no buffer
	// resync, no overhead re-estimation, no GC-history updates, no
	// accuracy-driven resets. The buffer counter and EBT still follow
	// observations (they are the model, not the calibrator).
	NoCalibration bool
	// NoGCModel disables the history-based GC detector entirely.
	NoGCModel bool
}

func (p Params) withDefaults() Params {
	if p.GCQuantile == 0 {
		p.GCQuantile = 0.35
	}
	if p.OverheadAlpha == 0 {
		p.OverheadAlpha = 0.2
	}
	if p.NLReadBase == 0 {
		p.NLReadBase = 100 * time.Microsecond
	}
	if p.NLWriteBase == 0 {
		p.NLWriteBase = 30 * time.Microsecond
	}
	if p.DisableBelowHL == 0 {
		p.DisableBelowHL = 0.2
	}
	if p.DisableMinSamples == 0 {
		p.DisableMinSamples = 400
	}
	if p.ResetDistBelowHL == 0 {
		p.ResetDistBelowHL = 0.35
	}
	return p
}

// Prediction is the engine's answer for one prospective request.
type Prediction struct {
	// HL reports whether the request is expected to be high-latency.
	HL bool
	// EET is the estimated end time (predicted latency).
	EET time.Duration
}

// Predictor is SSDcheck's runtime framework for one device.
//
// A Predictor is not safe for concurrent use: Predict, Observe and the
// accessors expect the single-threaded predict → submit → observe
// discipline of one I/O stream. Run one Predictor per device from one
// goroutine; internal/fleet is the concurrent entry point that owns
// many predictors this way without locks.
type Predictor struct {
	params   Params
	features *extract.Features

	volumeBits []int
	vols       []*volumeModel

	readThr, writeThr time.Duration

	enabled bool

	// Latency-monitor bookkeeping for accuracy-driven calibration: a
	// sliding tally of HL-observed requests and whether they were
	// predicted.
	hlSeen, hlHit int
	nlSeen, nlHit int
	distResets    int

	// Optional observability hook: calibration events (GC confirms,
	// buffer resyncs, history resets, harmless disable) are reported
	// here, attributed to subject. nil drops them.
	rec     obs.Recorder
	subject string
}

// SetRecorder attaches an observability recorder; calibrator and
// GC-detector events are reported to it, attributed to subject
// (typically the device ID). Pass obs.Nop() or leave unset to keep the
// predictor silent.
func (p *Predictor) SetRecorder(rec obs.Recorder, subject string) {
	p.rec = rec
	p.subject = subject
}

// event reports one named calibration event. Events fire on rare model
// repairs, never on the per-request hot path.
func (p *Predictor) event(name string) {
	if p.rec != nil {
		p.rec.Event(name, p.subject)
	}
}

// NewPredictor builds the runtime framework from extracted features —
// the model-construction step of the paper's Fig. 7.
func NewPredictor(f *extract.Features, p Params) *Predictor {
	p = p.withDefaults()
	volumeBits := append([]int(nil), f.VolumeBits...)
	if p.IgnoreVolumes {
		volumeBits = nil
	}
	pr := &Predictor{
		params:     p,
		features:   f,
		volumeBits: volumeBits,
		readThr:    f.ReadThreshold,
		writeThr:   f.WriteThreshold,
		enabled:    true,
	}
	bufPages := f.BufferBytes / blockdev.PageSize
	if bufPages <= 0 {
		bufPages = 1
	}
	hasRT := false
	for _, a := range f.FlushAlgorithms {
		if a == extract.FlushReadTrigger {
			hasRT = true
		}
	}
	n := 1 << len(pr.volumeBits)
	for i := 0; i < n; i++ {
		vm := &volumeModel{
			bufPages:      bufPages,
			fore:          f.BufferKind == extract.BufferFore,
			readTrigger:   hasRT,
			dist:          newIntervalDist(p.GCQuantile),
			flushOverhead: newEWMA(f.FlushOverhead, p.OverheadAlpha),
			gcOverhead:    newEWMA(f.GCOverhead, p.OverheadAlpha),
			disableGC:     p.NoGCModel,
		}
		// Seed the GC model with the diagnosis intervals, converted
		// from writes to flushes.
		for _, ivWrites := range f.GCIntervalWrites {
			vm.dist.Add(int(ivWrites)/bufPages + 1)
		}
		pr.vols = append(pr.vols, vm)
	}
	return pr
}

// Enabled reports whether prediction is active; when the calibrator has
// turned the framework off, every request is predicted NL (the paper's
// harmless fallback for devices outside model coverage).
func (p *Predictor) Enabled() bool { return p.enabled }

// volumeOf is the volume selector (Fig. 8 step 1).
func (p *Predictor) volumeOf(lba int64) *volumeModel {
	idx := 0
	for i, b := range p.volumeBits {
		idx |= int((lba>>uint(b))&1) << uint(i)
	}
	return p.vols[idx]
}

func pagesOf(req blockdev.Request) int {
	first := req.LBA / blockdev.SectorsPerPage
	last := (req.LBA + int64(req.Sectors) - 1) / blockdev.SectorsPerPage
	return int(last - first + 1)
}

// Predict is the prediction engine (Fig. 8 steps 2-4): for a request
// about to be submitted at instant now, it computes the Estimated End
// Time from the volume's EBT and the modeled flush/GC overheads, and
// classifies the request NL or HL against the latency threshold. It does
// not mutate model state, so schedulers may probe candidates freely.
func (p *Predictor) Predict(req blockdev.Request, now simclock.Time) Prediction {
	if !p.enabled || req.Op == blockdev.Trim {
		base := p.params.NLWriteBase
		if req.Op == blockdev.Read {
			base = p.params.NLReadBase
		}
		return Prediction{HL: false, EET: base}
	}
	v := p.volumeOf(req.LBA)
	pages := pagesOf(req)

	switch req.Op {
	case blockdev.Read:
		eet := p.readEET(v, now)
		return Prediction{HL: eet > p.readThr, EET: eet}

	case blockdev.Write:
		willFlush := v.bufCount+pages > v.bufPages
		eet := p.params.NLWriteBase
		if willFlush {
			flushCost := v.flushOverhead.Value()
			if v.predictGCOnFlush() {
				flushCost += v.gcOverhead.Value()
			}
			if v.fore {
				// The triggering write waits for the whole drain.
				eet += flushCost
				if v.ebt.After(now) {
					eet += v.ebt.Sub(now)
				}
			} else if v.ebt.After(now) {
				// Back buffer: only backpressure stalls the write.
				eet += v.ebt.Sub(now)
			}
		}
		return Prediction{HL: eet > p.writeThr, EET: eet}
	}
	return Prediction{HL: false, EET: p.params.NLWriteBase}
}

// readEET is the read branch of the prediction engine for one volume
// model: the flush-drain estimate when a read would trigger a buffer
// flush (plus GC when the detector is armed), otherwise the baseline
// plus whatever busy time remains on the volume's media.
func (p *Predictor) readEET(v *volumeModel, now simclock.Time) time.Duration {
	if v.readTrigger && v.bufCount > 0 {
		eet := v.flushOverhead.Value() + p.params.NLReadBase
		if v.predictGCOnFlush() {
			eet += v.gcOverhead.Value()
		}
		return eet
	}
	eet := p.params.NLReadBase
	if v.ebt.After(now) {
		eet += v.ebt.Sub(now)
	}
	return eet
}

// DeviceReadRisk is the device-level read outlook: the worst (highest
// EET) prediction for a nominal one-page read across every internal
// volume at instant now. Fleet-level schedulers use it to rank whole
// devices — a GC or flush window pending on any internal volume makes
// the device a poor read target regardless of which LBA the next read
// lands on. Like Predict it is read-only and allocation-free, so
// callers may probe freely.
func (p *Predictor) DeviceReadRisk(now simclock.Time) Prediction {
	if !p.enabled {
		return Prediction{HL: false, EET: p.params.NLReadBase}
	}
	var worst time.Duration
	for _, v := range p.vols {
		if eet := p.readEET(v, now); eet > worst {
			worst = eet
		}
	}
	return Prediction{HL: worst > p.readThr, EET: worst}
}

// PredictReadInOrder predicts the latency class of a read *in its
// original queue position*: pendingWritePages of writes queued ahead of
// it will have been dispatched by the time it reaches the device. This
// is exactly the query SSD-only PAS makes (paper §IV-B): a read that
// would be HL in order is promoted ahead of those writes.
func (p *Predictor) PredictReadInOrder(req blockdev.Request, now simclock.Time, pendingWritePages int) Prediction {
	if !p.enabled {
		return Prediction{HL: false, EET: p.params.NLReadBase}
	}
	v := p.volumeOf(req.LBA)
	future := v.bufCount + pendingWritePages

	if v.readTrigger && future > 0 {
		eet := v.flushOverhead.Value() + p.params.NLReadBase
		if v.predictGCOnFlush() {
			eet += v.gcOverhead.Value()
		}
		return Prediction{HL: eet > p.readThr, EET: eet}
	}
	if future > v.bufPages {
		// The pending writes will trigger a flush; the read will meet
		// the drain.
		eet := v.flushOverhead.Value() + p.params.NLReadBase
		if v.predictGCOnFlush() {
			eet += v.gcOverhead.Value()
		}
		return Prediction{HL: eet > p.readThr, EET: eet}
	}
	return p.Predict(req, now)
}

// ModelState is a read-only snapshot of one volume model's dynamic
// state, for introspection tooling and debugging.
type ModelState struct {
	// BufCount is the estimated pages currently in the write buffer.
	BufCount int
	// EBT is the estimated instant the volume's media goes idle.
	EBT simclock.Time
	// FlushesSinceGC is the GC model's interval counter.
	FlushesSinceGC int
}

// State returns the model snapshot for the volume owning lba.
func (p *Predictor) State(lba int64) ModelState {
	v := p.volumeOf(lba)
	return ModelState{BufCount: v.bufCount, EBT: v.ebt, FlushesSinceGC: v.flushesSinceGC}
}
