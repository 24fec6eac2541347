// Package host provides the host-side queueing machinery the scheduler
// and volume-manager experiments run on: arrival streams derived from
// the evaluation workloads, an event-driven dispatch loop that lets an
// I/O scheduler reorder a device queue, and latency/throughput records.
package host

import (
	"math"
	"sort"

	"ssdcheck/internal/blockdev"
	"ssdcheck/internal/simclock"
	"ssdcheck/internal/trace"
)

// Arrival is one request with its arrival instant at the block layer.
type Arrival struct {
	Req blockdev.Request
	At  simclock.Time
}

// Item is a queued request as schedulers see it.
type Item struct {
	Req    blockdev.Request
	Arrive simclock.Time
	Seq    uint64 // submission order tie-breaker, assigned by the driver
	// Barrier marks an ordering point: prediction-aware schedulers must
	// not reorder requests across it (paper §IV-B: "When the strict
	// order is necessary (e.g., barrier), PAS enforces the request
	// order").
	Barrier bool
}

// Record is the full life of one request through the host queue.
type Record struct {
	Req      blockdev.Request
	Arrive   simclock.Time
	Dispatch simclock.Time
	Done     simclock.Time
	Cause    blockdev.Cause
}

// Latency returns the end-to-end latency including queueing — the
// quantity I/O schedulers actually move.
func (r Record) Latency() simclock.Time { return r.Done - r.Arrive }

// OpenLoopArrivals turns a request stream into an open-loop arrival
// stream with exponential interarrival gaps of the given mean — enough
// burstiness for queues to form so scheduling decisions matter.
func OpenLoopArrivals(reqs []blockdev.Request, meanGap simclock.Time, seed uint64) []Arrival {
	rng := simclock.NewRNG(seed)
	out := make([]Arrival, len(reqs))
	t := simclock.Time(0)
	for i, r := range reqs {
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		t += simclock.Time(float64(meanGap) * -math.Log(u))
		out[i] = Arrival{Req: r, At: t}
	}
	return out
}

// CalibrateMeanGap replays a prefix of the workload at QD1 on the device
// starting at instant start to estimate the mean service time, and
// returns the arrival gap that loads the device to the requested
// utilization, plus the instant the calibration finished.
func CalibrateMeanGap(dev blockdev.TaggedDevice, spec trace.Spec, seed uint64, probe int, utilization float64, start simclock.Time) (simclock.Time, simclock.Time) {
	reqs := trace.Generate(spec, dev.CapacitySectors(), seed, probe)
	log, end := trace.Replay(dev, reqs, trace.ReplayOptions{Start: start})
	if len(log) == 0 || end <= start {
		return simclock.Time(100 * simclock.Microsecond), end
	}
	mean := float64(end.Sub(start)) / float64(len(log))
	return simclock.Time(mean / utilization), end
}

// Scheduler is the host I/O scheduler contract: requests enter on
// arrival; the dispatcher asks for the next request when the device goes
// idle.
type Scheduler interface {
	// Name labels the scheduler in reports.
	Name() string
	// Add enqueues a newly arrived request.
	Add(it Item)
	// Next removes and returns the request to dispatch at instant now.
	// ok is false when the queue is empty.
	Next(now simclock.Time) (it Item, ok bool)
	// Len returns the number of queued requests.
	Len() int
	// OnComplete lets prediction-aware schedulers observe completions.
	OnComplete(req blockdev.Request, dispatch, done simclock.Time)
}

// Drive runs an arrival stream through a scheduler feeding a device with
// one request in flight (the single-volume scheduler experiments of
// Fig. 13/14), and returns the full per-request records.
func Drive(dev blockdev.TaggedDevice, s Scheduler, arrivals []Arrival) []Record {
	// Arrivals must be processed in time order.
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].At < arrivals[j].At })

	records := make([]Record, 0, len(arrivals))
	now := simclock.Time(0)
	i := 0
	var seq uint64
	for i < len(arrivals) || s.Len() > 0 {
		if s.Len() == 0 && arrivals[i].At > now {
			now = arrivals[i].At
		}
		for i < len(arrivals) && arrivals[i].At <= now {
			s.Add(Item{Req: arrivals[i].Req, Arrive: arrivals[i].At, Seq: seq})
			seq++
			i++
		}
		it, ok := s.Next(now)
		if !ok {
			continue
		}
		done, cause := dev.SubmitTagged(it.Req, now)
		s.OnComplete(it.Req, now, done)
		records = append(records, Record{Req: it.Req, Arrive: it.Arrive, Dispatch: now, Done: done, Cause: cause})
		now = done
	}
	return records
}

// DriveClosedLoop keeps exactly depth requests outstanding at the
// scheduler: as each request completes, the next one from reqs becomes
// visible. The device stays saturated and the scheduler always has
// choices, so the completion rate measures pure service capability —
// the throughput comparison of Fig. 14.
func DriveClosedLoop(dev blockdev.TaggedDevice, s Scheduler, reqs []blockdev.Request, depth int, start simclock.Time) []Record {
	if depth < 1 {
		depth = 1
	}
	records := make([]Record, 0, len(reqs))
	now := start
	next := 0
	var seq uint64
	fill := func() {
		for next < len(reqs) && s.Len() < depth {
			s.Add(Item{Req: reqs[next], Arrive: now, Seq: seq})
			seq++
			next++
		}
	}
	fill()
	for s.Len() > 0 {
		it, ok := s.Next(now)
		if !ok {
			break
		}
		done, cause := dev.SubmitTagged(it.Req, now)
		s.OnComplete(it.Req, now, done)
		records = append(records, Record{Req: it.Req, Arrive: it.Arrive, Dispatch: now, Done: done, Cause: cause})
		now = done
		fill()
	}
	return records
}

// Metrics summarizes a record set for reporting.
type Metrics struct {
	Requests       int
	ThroughputMBps float64
	MeanLatency    simclock.Time
	P95, P99, P995 simclock.Time
}

// Summarize computes throughput and latency percentiles of records.
func Summarize(records []Record) Metrics {
	var m Metrics
	m.Requests = len(records)
	if len(records) == 0 {
		return m
	}
	lats := make([]int64, 0, len(records))
	var bytes int64
	start, end := records[0].Arrive, records[0].Done
	var sum int64
	for _, r := range records {
		lats = append(lats, int64(r.Latency()))
		sum += int64(r.Latency())
		bytes += int64(r.Req.Bytes())
		if r.Arrive < start {
			start = r.Arrive
		}
		if r.Done > end {
			end = r.Done
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pick := func(p float64) simclock.Time {
		idx := int(p*float64(len(lats)-1) + 0.5) // rounded rank
		return simclock.Time(lats[idx])
	}
	m.MeanLatency = simclock.Time(sum / int64(len(lats)))
	m.P95, m.P99, m.P995 = pick(0.95), pick(0.99), pick(0.995)
	if dur := end.Sub(start).Seconds(); dur > 0 {
		m.ThroughputMBps = float64(bytes) / dur / 1e6
	}
	return m
}

// FilterOp returns the records whose request direction matches op.
func FilterOp(records []Record, op blockdev.Op) []Record {
	out := make([]Record, 0, len(records))
	for _, r := range records {
		if r.Req.Op == op {
			out = append(out, r)
		}
	}
	return out
}

// PercentileLatency returns the p-quantile (0..1) of end-to-end latency.
func PercentileLatency(records []Record, p float64) simclock.Time {
	if len(records) == 0 {
		return 0
	}
	lats := make([]int64, 0, len(records))
	for _, r := range records {
		lats = append(lats, int64(r.Latency()))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(p*float64(len(lats)-1) + 0.5) // rounded rank
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return simclock.Time(lats[idx])
}
