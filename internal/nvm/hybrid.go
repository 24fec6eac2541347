package nvm

import (
	"time"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/core"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/stats"
)

// Policy selects the write-steering rule of the multi-tier scheduler.
type Policy uint8

const (
	// Baseline forwards every write into the NVM until it is full —
	// the conventional multi-tier setup of Fig. 15.
	Baseline Policy = iota
	// HybridPAS is the paper's selective delivery: predicted-HL writes
	// go to the NVM; NL writes go to the NVM only with probability
	// BufferWeight%, the rest straight to the SSD.
	HybridPAS
)

// Config parameterizes a hybrid run.
type Config struct {
	Policy Policy
	// NVMBytes is the NVM capacity.
	NVMBytes int64
	// BufferWeight W (0..100): share of NL writes the NVM absorbs
	// under HybridPAS (the paper evaluates W=80).
	BufferWeight int
	// DrainPages and DrainInterval set the background flusher's pace.
	DrainPages    int
	DrainInterval time.Duration
	// MeanGap paces foreground submissions (next request starts at
	// max(previous completion, previous start + MeanGap)). Zero runs
	// the stream flat out, which pins any finite NVM full; the Fig. 15
	// dynamics need application-paced traffic.
	MeanGap time.Duration
	// Utilization is the raw-device load CalibratedConfig targets when
	// deriving MeanGap (default 0.5). Values above 1 demand more than
	// the raw device can serve — the regime where only the NVM keeps
	// the foreground at pace.
	Utilization float64
	// DrainFactor is the drain rate CalibratedConfig derives, as a
	// fraction of the write demand (default 0.9: between Hybrid PAS's
	// 80% inflow and the baseline's 100%).
	DrainFactor float64
	// Seed drives the probabilistic NL steering.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.NVMBytes == 0 {
		c.NVMBytes = 48 << 20
	}
	if c.BufferWeight == 0 {
		c.BufferWeight = 80
	}
	if c.DrainPages == 0 {
		c.DrainPages = 5
	}
	if c.DrainInterval == 0 {
		c.DrainInterval = 2 * time.Millisecond
	}
	return c
}

// Result is the outcome of one hybrid run.
type Result struct {
	// Foreground completions (reads and writes as the application saw
	// them, regardless of tier).
	Completions []blockdev.Completion
	// NVMBytesWritten is the Fig. 15c pressure metric.
	NVMBytesWritten int64
	// Timeline is the foreground throughput series (Fig. 15a).
	Timeline *stats.ThroughputSeries
	// End is the virtual instant the run finished.
	End simclock.Time
}

// Run drives reqs closed-loop through the two-tier stack. The predictor
// is consulted only under the HybridPAS policy and is fed completions of
// SSD-bound requests so its model stays calibrated; it may be nil for
// Baseline.
func Run(ssd blockdev.TaggedDevice, pr *core.Predictor, reqs []blockdev.Request, cfg Config, start simclock.Time) Result {
	cfg = cfg.withDefaults()
	tier := NewTier(cfg.NVMBytes, 0, 0)
	rng := simclock.NewRNG(cfg.Seed)

	res := Result{Timeline: stats.NewThroughputSeries(0.25)}
	nextDrain := start.Add(cfg.DrainInterval)
	var drainBusyUntil simclock.Time

	// The NVM keeps a small reserve that only predicted-HL writes may
	// occupy: selective delivery exists precisely so the stall-making
	// writes always find room (paper §IV-B).
	reserve := int64(cfg.DrainPages) * 8 * blockdev.PageSize
	if reserve > cfg.NVMBytes/8 {
		reserve = cfg.NVMBytes / 8
	}

	// submitSSD issues an SSD request; background drain and foreground
	// traffic overlap (the device itself models flush/GC interference
	// between them).
	submitSSD := func(req blockdev.Request, at simclock.Time) (simclock.Time, blockdev.Cause) {
		done, cause := ssd.SubmitTagged(req, at)
		if pr != nil {
			pr.Observe(req, at, done)
		}
		return done, cause
	}

	// drainUpTo runs background drain ticks scheduled before instant t.
	// The drain is flow-controlled: a tick is skipped while the previous
	// batch has not been acknowledged, so a saturated SSD throttles the
	// drain instead of accumulating an unbounded backlog.
	drainUpTo := func(t simclock.Time) {
		for !nextDrain.After(t) {
			if tier.Pending() > 0 && !drainBusyUntil.After(nextDrain) {
				for _, lba := range tier.PopDrain(cfg.DrainPages) {
					done, _ := submitSSD(blockdev.Request{Op: blockdev.Write, LBA: lba, Sectors: blockdev.SectorsPerPage}, nextDrain)
					if done.After(drainBusyUntil) {
						drainBusyUntil = done
					}
				}
			}
			nextDrain = nextDrain.Add(cfg.DrainInterval)
		}
	}

	now := start
	for _, req := range reqs {
		drainUpTo(now)
		var done simclock.Time
		var cause blockdev.Cause
		switch {
		case req.Op == blockdev.Read:
			if tier.Holds(req) {
				done = tier.Read(now)
			} else {
				done, cause = submitSSD(req, now)
			}
		case req.Op == blockdev.Write && cfg.Policy == Baseline:
			if tier.Admit(req.Bytes()) {
				done = tier.Write(req, now)
			} else {
				// NVM backpressure: the write meets the raw SSD.
				done, cause = submitSSD(req, now)
			}
		case req.Op == blockdev.Write && cfg.Policy == HybridPAS:
			pred := pr.Predict(req, now)
			admit := false
			if pred.HL {
				// HL writes may dip into the reserve and ignore the
				// hysteresis latch: keeping stall-makers off the SSD
				// is the whole point of selective delivery.
				admit = tier.CanAbsorb(req.Bytes())
			} else if rng.Intn(100) < cfg.BufferWeight {
				// NL writes respect the latch and the reserve.
				admit = tier.Admit(req.Bytes()) && tier.Free()-int64(req.Bytes()) >= reserve
			}
			if admit {
				done = tier.Write(req, now)
			} else {
				done, cause = submitSSD(req, now)
			}
		default:
			done, cause = submitSSD(req, now)
		}
		res.Completions = append(res.Completions, blockdev.Completion{Req: req, Submit: now, Done: done, Cause: cause})
		res.Timeline.Record(done.Sub(start).Seconds(), req.Bytes())
		now = done
		if cfg.MeanGap > 0 {
			if paced := res.Completions[len(res.Completions)-1].Submit.Add(cfg.MeanGap); paced.After(now) {
				now = paced
			}
		}
	}
	res.NVMBytesWritten = tier.BytesWritten()
	res.End = now
	return res
}
