package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/core"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/faults"
	"ssdcheck/internal/obs"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/trace"
)

// managedDevice is one fleet member: a device, its predictor, its
// private virtual clock, and its health state. The device, predictor,
// clock and RNG are touched only by the owning shard's goroutine (plus
// initialization); everything below mu is shared with metrics and
// health readers.
type managedDevice struct {
	id    string
	name  string // simulator label ("SSD A", ...)
	spec  DeviceSpec
	shard int

	dev      blockdev.Device
	fallible blockdev.FallibleDevice // cached checked surface, may be nil
	inj      *faults.Injector        // non-nil when spec.Faults is set
	pr       *core.Predictor
	now      simclock.Time // per-device virtual clock
	rng      *simclock.RNG // retry jitter + recovery-probe addresses

	// rec receives sampled request traces and health events; never nil
	// (defaults to obs.Nop()). healthG/clockG/modelG mirror the
	// device's state into registry gauges; rediagH times re-diagnoses.
	rec     obs.Recorder
	healthG *obs.Gauge
	clockG  *obs.Gauge
	modelG  *obs.Gauge
	rediagH *obs.Histogram

	// feats is the device's current feature baseline (seeded by init,
	// replaced on every successful re-diagnosis); rediag is the
	// in-flight staged re-diagnosis. Both are touched only by the
	// owning shard goroutine.
	feats  *extract.Features
	rediag *rediagRun

	// runTail is the shard's scratch for threading one operation's
	// items into this device's run (see serveRuns): one past the index
	// of the device's latest item, zero between operations.
	runTail int

	mu    sync.Mutex
	stats deviceStats
	// Health state machine (written by the shard under mu, read by
	// snapshots and the router).
	health     Health
	seq        int64 // routed requests, including rejected ones
	consecErr  int
	consecSlow int
	consecOK   int
	rejections int64 // rejected since quarantine; triggers recovery probes
	translog   []HealthTransition
	// Model-health state machine (same locking discipline as health).
	modelHealth    ModelHealth
	driftAge       int   // served completions spent drifting
	fallbackServed int64 // conservative completions since entering fallback
	rediags        int   // completed re-diagnosis attempts
	modelLog       []ModelTransition
	// Cached predictor state, refreshed by the shard after every
	// device run (and before the run lets go of mu) so readers never
	// touch the (non-thread-safe) predictor. stale marks a served
	// request not yet reflected in it.
	stale    bool
	enabled  bool
	model    core.ModelState
	clock    simclock.Time
	driftRep core.DriftReport
	readRisk core.Prediction // device-level nominal-read outlook
	hlStreak int             // consecutive observed-HL/timeout completions
}

// init preconditions and diagnoses the device, then builds its
// predictor. It runs on the owning shard's goroutine during startup so
// fleets diagnose in parallel, one shard at a time per device. The
// fault injector (if any) stays disarmed until every device finishes
// init, so setup traffic is fault-free.
func (md *managedDevice) init(cfg Config) error {
	if tagged, ok := md.dev.(blockdev.TaggedDevice); ok && cfg.PreconditionFactor > 0 {
		md.now = trace.Precondition(tagged, md.spec.Seed, cfg.PreconditionFactor, md.now)
	}
	feats := md.spec.Features
	if feats == nil {
		opts := cfg.Diagnosis
		opts.Seed = md.spec.Seed ^ 0xd1a6 // device-private probe stream
		var err error
		feats, md.now, err = extract.Run(md.dev, md.now, opts)
		if err != nil {
			return err
		}
	}
	md.feats = feats
	md.pr = core.NewPredictor(feats, md.spec.Params)
	md.pr.SetRecorder(md.rec, md.id)
	md.rng = simclock.NewRNG(md.spec.Seed ^ 0x5afe) // device-private resilience stream
	md.publish()
	return nil
}

// process runs one request through the resilience pipeline on the
// device's virtual clock: quarantine check (with deterministic
// recovery probing), predict, submit with bounded retry, deadline
// classification, observe, record. When the request is sampled, every
// stage leaves a span stamped with virtual-clock instants, so the
// recorded trace is a deterministic function of the request stream.
//
// The caller holds md.mu on entry and gets it back on return, so a
// whole device run is served under one hold (see serveRuns). The lock
// is let go only around the recovery probe and the re-diagnosis step,
// which take it themselves; the cached reader state is refreshed
// before each such release, so a reader — who must hold md.mu — sees
// exactly what a refresh after every request would have shown. The
// result is written straight into the caller's slot.
func (md *managedDevice) process(req blockdev.Request, cfg *Config, res *Result) {
	md.seq++
	seq := md.seq
	sampled := md.rec.Sampled(md.id, seq)
	// Fallback devices serve conservative predictions; only the owning
	// shard mutates modelHealth, so this capture stays valid for the
	// whole request.
	fallback := md.modelHealth.Conservative()
	var spans []obs.Span
	span := func(name string, start, end simclock.Time) {
		if sampled {
			spans = append(spans, obs.Span{Name: name, Start: start, End: end})
		}
	}
	span("queue", md.now, md.now)
	if md.health == Quarantined {
		md.rejections++
		if cfg.Health.ProbeAfterRejections > 0 && md.rejections >= int64(cfg.Health.ProbeAfterRejections) {
			md.publishStaleLocked()
			md.mu.Unlock()
			md.tryRecover(cfg)
			md.mu.Lock()
		}
		if md.health == Quarantined {
			md.stats.vals[statRejected]++
			*res = errResult(md.id, fmt.Errorf("device %q: %w", md.id, ErrDeviceQuarantined))
			span("route", md.now, md.now)
			md.recordTrace(req, seq, sampled, spans, core.Prediction{}, res)
			return
		}
		// A probe pass put the device back in service in time to take
		// this very request.
	}
	span("route", md.now, md.now)

	var pred core.Prediction
	if fallback {
		pred = md.pr.ConservativePredict(req)
	} else {
		pred = md.pr.Predict(req, md.now)
	}
	span("predict", md.now, md.now)

	// Submit with bounded retry: transient failures back off
	// exponentially (with seeded jitter) on the virtual clock and try
	// again; fail-stop errors and an exhausted budget give up.
	submitAt := md.now
	retries := 0
	var done simclock.Time
	var err error
	for {
		done, err = md.submitChecked(req, submitAt)
		if err == nil {
			span("submit", submitAt, done)
			break
		}
		span("submit", submitAt, submitAt)
		if !errors.Is(err, blockdev.ErrTransient) || retries >= cfg.Retry.MaxRetries {
			break
		}
		d := cfg.Retry.Delay(retries, md.rng)
		span("backoff", submitAt, submitAt.Add(d))
		retries++
		submitAt = submitAt.Add(d)
	}
	md.now = submitAt

	if err != nil {
		*res = errResult(md.id, fmt.Errorf("device %q: %w", md.id, err))
		res.HL, res.EET, res.Retries = pred.HL, pred.EET, retries
		md.stats.vals[statErrors]++
		md.stats.vals[statRetries] += int64(retries)
		md.noteOutcomeLocked(err, false, &cfg.Health)
		md.stale = true
		md.recordTrace(req, seq, sampled, spans, pred, res)
		return
	}

	lat := done.Sub(submitAt)
	timedOut := lat >= requestTimeout
	if !timedOut && !fallback {
		// Timeout-class completions are withheld from the model: a
		// stuck or storming device would otherwise poison the
		// calibrator it needs for recovery. Fallback-mode completions
		// are withheld too — the predictor is condemned, and feeding it
		// would skew the windows the post-swap model starts from.
		md.pr.Observe(req, submitAt, done)
		span("calibrate", done, done)
	}
	// Field by field: a composite literal would be built in a temporary
	// and block-copied into the caller's slot.
	res.DeviceID = md.id
	res.HL, res.EET = pred.HL, pred.EET
	res.Latency = lat
	res.ObservedHL = md.pr.Classify(req.Op, lat)
	res.CompletedAt = done
	res.Retries = retries
	res.TimedOut, res.Fallback = timedOut, fallback
	res.Err, res.Error = nil, ""
	md.now = done

	md.stats.record(req, pred.HL, lat, res.ObservedHL)
	md.stats.vals[statRetries] += int64(retries)
	if timedOut {
		md.stats.vals[statTimeouts]++
	}
	if fallback {
		md.stats.vals[statFallback]++
		md.fallbackServed++
	}
	if res.ObservedHL || timedOut {
		md.hlStreak++
	} else {
		md.hlStreak = 0
	}
	md.noteOutcomeLocked(nil, timedOut, &cfg.Health)
	var drift core.DriftReport
	md.pr.DriftInto(&drift)
	md.noteModelLocked(&drift, &cfg.Model)
	md.stale = true
	md.recordTrace(req, seq, sampled, spans, pred, res)
	if md.modelHealth == ModelRediagnosing {
		// Advance the staged re-diagnosis after the live request, so
		// probe traffic interleaves with serving without dropping or
		// reordering anything.
		md.publishLocked()
		md.mu.Unlock()
		md.rediagStep(cfg)
		md.mu.Lock()
	}
}

// recordTrace assembles and stores the sampled request trace. It runs
// on the owning shard goroutine with md.mu held.
func (md *managedDevice) recordTrace(req blockdev.Request, seq int64, sampled bool, spans []obs.Span, pred core.Prediction, res *Result) {
	if !sampled {
		return
	}
	md.rec.RecordTrace(obs.RequestTrace{
		Device:      md.id,
		Seq:         seq,
		Op:          req.Op.String(),
		LBA:         req.LBA,
		Sectors:     req.Sectors,
		PredictedHL: pred.HL,
		ObservedHL:  res.ObservedHL,
		EET:         pred.EET,
		Latency:     res.Latency,
		Retries:     res.Retries,
		TimedOut:    res.TimedOut,
		Err:         res.Error,
		Spans:       spans,
	})
}

func (md *managedDevice) publish() {
	md.mu.Lock()
	md.publishLocked()
	md.flushObsLocked()
	md.mu.Unlock()
}

// publishLocked refreshes the cached predictor state readers see. It
// runs after every device run, so it deliberately touches no atomics —
// registry series catch up in flushObsLocked on the read side.
func (md *managedDevice) publishLocked() {
	md.stale = false
	md.enabled = md.pr.Enabled()
	md.model = md.pr.State(0)
	md.clock = md.now
	md.pr.DriftInto(&md.driftRep)
	md.readRisk = md.pr.DeviceReadRisk(md.now)
}

// publishStaleLocked refreshes the cached state only if a served
// request is not yet reflected in it. A re-diagnosis step runs after
// its request's refresh and moves the clock without one; readers keep
// seeing the clock as of that refresh until the next request, as they
// would with a refresh per request, so an unconditional refresh at the
// end of the run would show them more.
func (md *managedDevice) publishStaleLocked() {
	if md.stale {
		md.publishLocked()
	}
}

// bindObs registers (or re-binds, after a move between managers) the
// device's metric series, state gauges and re-diagnosis histogram in
// reg.
func (md *managedDevice) bindObs(reg *obs.Registry) {
	md.stats.bind(reg, md.id)
	dev := obs.Label{Name: "device", Value: md.id}
	md.healthG = reg.Gauge("ssdcheck_device_health", "Health state (0=healthy 1=degraded 2=quarantined 3=recovering).", dev)
	md.clockG = reg.Gauge("ssdcheck_device_clock_ns", "Device virtual clock, nanoseconds.", dev)
	md.modelG = reg.Gauge("ssdcheck_device_model_health", "Model-health state (0=calibrated 1=drifting 2=fallback 3=rediagnosing).", dev)
	md.rediagH = reg.Histogram("ssdcheck_rediag_duration_seconds", "Re-diagnosis duration on the device's virtual clock.", dev)
}

// flushObsLocked pushes the device's plain tallies and state gauges
// into the registry. Every read path (snapshot, fleet metrics, health
// report) calls it under md.mu, so the registry is exact whenever it
// is rendered; the daemon refreshes via Manager.Metrics before
// Prometheus exposition.
func (md *managedDevice) flushObsLocked() {
	md.stats.flushLocked()
	md.healthG.Set(int64(md.health))
	md.clockG.Set(int64(md.clock))
	md.modelG.Set(int64(md.modelHealth))
}

// errResult builds a failed per-request result, mirroring the error
// onto the wire field.
func errResult(id string, err error) Result {
	return Result{DeviceID: id, Err: err, Error: err.Error()}
}

// Result is the fleet's answer for one submitted request.
type Result struct {
	// DeviceID names the device the request was addressed to.
	DeviceID string `json:"device"`
	// HL is the prediction made before submission.
	HL bool `json:"hl"`
	// EET is the predicted latency (estimated end time).
	EET time.Duration `json:"eet_ns"`
	// Latency is the observed service time on the device's virtual
	// clock.
	Latency time.Duration `json:"latency_ns"`
	// ObservedHL classifies the observed latency against the device's
	// extracted NL/HL threshold.
	ObservedHL bool `json:"observed_hl"`
	// CompletedAt is the device's virtual clock after the request.
	CompletedAt simclock.Time `json:"completed_at_ns"`
	// Retries counts transient-error retries this request consumed.
	Retries int `json:"retries,omitempty"`
	// Fallback marks a prediction served conservatively (static
	// always-NL) because the device's model health is fallback or
	// rediagnosing; schedulers should deprioritize it.
	Fallback bool `json:"fallback,omitempty"`
	// TimedOut marks a completion at or over the request deadline.
	TimedOut bool `json:"timed_out,omitempty"`
	// Err is the request's failure, nil on success. It wraps one of
	// the typed sentinels (blockdev.ErrTransient,
	// blockdev.ErrDeviceFailed, ErrDeviceQuarantined,
	// ErrUnknownDevice) for errors.Is dispatch.
	Err error `json:"-"`
	// Error is Err's message for the wire; empty on success.
	Error string `json:"error,omitempty"`
}

// batchItem is one request routed to a shard, carrying its slot in the
// caller's result slice.
type batchItem struct {
	md  *managedDevice
	req blockdev.Request
	idx int
}

// shardOp is the unit of work a shard receives through its ingress
// ring: a slice of items to process in order, writing each result into
// its own slot of out; or — when probe is set — a sweep that
// recovery-probes the shard's quarantined devices; or — when rediag is
// set — a synchronous forced re-diagnosis of one device, its error
// written through rediagErr; or — when attach/detach is set — a
// membership change handing device ownership to or away from this
// shard's goroutine. Result slots are disjoint across shards, and wg
// publishes the writes to the caller.
//
// Operations are pooled: the submitter takes one from Manager.opPool,
// the shard signals wg after its last touch, and the submitter recycles
// it after wg.Wait — so the steady-state round trip allocates nothing.
// ownWG and inline are the embedded storage the single-operation paths
// (Submit's fast path, probes, membership changes) use so even those
// never reach for a second object.
type shardOp struct {
	items     []batchItem
	out       []Result
	wg        *sync.WaitGroup
	enq       time.Time // ring entry instant, for the ingress wait histogram
	probe     bool
	rediag    *managedDevice
	rediagErr *error
	attach    *managedDevice
	detach    *managedDevice

	ownWG  sync.WaitGroup
	inline [1]Result
}

// reset scrubs an op before it returns to the pool: device references
// are cleared so a pooled op never pins a detached device's simulator.
func (op *shardOp) reset() {
	clear(op.items)
	op.items = op.items[:0]
	op.out = nil
	op.wg = nil
	op.enq = time.Time{}
	op.probe = false
	op.rediag, op.rediagErr = nil, nil
	op.attach, op.detach = nil, nil
	op.inline[0] = Result{}
}

// shard owns a disjoint subset of the fleet's devices and processes
// their requests sequentially on one goroutine. Work arrives through
// the lock-free ingress ring; the goroutine spins briefly when the
// ring runs dry and then parks on wake until a producer hands it the
// token (see enqueue for the producer half of the protocol).
type shard struct {
	id   int
	q    *ingressRing
	wake chan struct{} // capacity 1: at most one pending wake token
	idle atomic.Bool   // consumer parked (or about to); producers CAS it down

	// closing is set by Close after the manager stops accepting work;
	// the consumer exits once it is set and the ring is drained.
	closing atomic.Bool

	devs []*managedDevice

	// next threads an operation's items into device runs (see
	// serveRuns); it grows to the largest operation served.
	next []int

	// Ingress observability: queue depth gauge (refreshed by
	// Manager.Metrics) and time-in-ring histogram (observed per
	// operation at dequeue, exposed in microseconds).
	depthG *obs.Gauge
	waitH  *obs.Histogram
}

// idleSpins is how many yield-and-recheck rounds the consumer burns
// before parking. Enough to bridge a producer mid-enqueue; small
// enough that an idle fleet costs nothing measurable.
const idleSpins = 32

func (s *shard) run(done *sync.WaitGroup, cfg *Config) {
	defer done.Done()
	for {
		op := s.q.pop()
		for i := 0; op == nil && i < idleSpins; i++ {
			runtime.Gosched()
			op = s.q.pop()
		}
		if op == nil {
			// Publish idleness, then recheck: a producer that pushed
			// before seeing idle=true is caught by the recheck, one
			// that pushed after will CAS the flag and send the token —
			// either way no operation is stranded in the ring.
			s.idle.Store(true)
			if op = s.q.pop(); op == nil {
				if s.closing.Load() {
					// closing is set only after every producer released
					// m.mu, so the ring can no longer grow; one final
					// drain check and the shard is done.
					if op = s.q.pop(); op == nil {
						return
					}
				} else {
					<-s.wake
					op = s.q.pop() // may be nil: a stale token is harmless
				}
			}
			s.idle.Store(false)
			if op == nil {
				continue
			}
		}
		s.exec(op, cfg)
	}
}

// exec runs one dequeued operation. wg.Done is the shard's last touch:
// it publishes the result writes and releases the op back to its
// submitter, which may recycle it immediately.
func (s *shard) exec(op *shardOp, cfg *Config) {
	s.waitH.Observe(time.Since(op.enq))
	switch {
	case op.attach != nil:
		// Ownership handoff: from here on this goroutine is the only
		// one touching the device's simulator and predictor.
		s.devs = append(s.devs, op.attach)
	case op.detach != nil:
		for i, md := range s.devs {
			if md == op.detach {
				s.devs = append(s.devs[:i], s.devs[i+1:]...)
				break
			}
		}
	case op.rediag != nil:
		*op.rediagErr = op.rediag.forceRediag(cfg)
	case op.probe:
		for _, md := range s.devs {
			md.mu.Lock()
			quarantined := md.health == Quarantined
			md.mu.Unlock()
			if quarantined {
				md.tryRecover(cfg)
			}
		}
	default:
		s.serveRuns(op, cfg)
	}
	op.wg.Done()
}

// serveRuns serves a request operation as device runs: a run is the
// items for one device, taken in batch order, and it is served under
// one hold of the device's mutex with one refresh of its reader state
// at the end. Devices are independent — the simulation depends only on
// each device's own request order — so this stable group-by-device is
// exact. A single Submit is a run of one.
//
// Runs start in the order of each device's first item. The first pass
// links every item to the next item for the same device (next holds
// one past that index, zero at a run's end), using md.runTail as the
// device's link cursor; the second pass serves each run when it meets
// its first item and clears the cursor, so later items of a served
// device are skipped.
func (s *shard) serveRuns(op *shardOp, cfg *Config) {
	items := op.items
	if cap(s.next) < len(items) {
		s.next = make([]int, len(items))
	}
	next := s.next[:len(items)]
	for i := range items {
		md := items[i].md
		if md.runTail != 0 {
			next[md.runTail-1] = i + 1
		}
		md.runTail = i + 1
		next[i] = 0
	}
	for i := range items {
		md := items[i].md
		if md.runTail == 0 {
			continue
		}
		md.runTail = 0
		md.mu.Lock()
		for j := i + 1; j != 0; j = next[j-1] {
			it := &items[j-1]
			md.process(it.req, cfg, &op.out[it.idx])
		}
		md.publishStaleLocked()
		md.mu.Unlock()
	}
}
