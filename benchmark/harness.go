package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// plan says how much to run. Every count that shapes a workload is
// derived from it and from the workload's nominal rate, never from how
// fast the host turns out to be: a segment is a fixed number of calls,
// so per-device request order — and with it every simulated statistic —
// is a pure function of (seed, seconds, segments).
type plan struct {
	seed     uint64
	seconds  float64 // nominal timed seconds per workload, all segments together
	segments int     // timed segments per workload
	setups   int     // times each workload is set up; setup_s is their median
	fast     bool    // reduced-strength diagnosis (smoke only)
}

// callsPerSegment turns the plan into the fixed number of calls each
// client makes in one segment.
func (p plan) callsPerSegment(s wlSpec) int64 {
	n := s.rate * p.seconds / float64(p.segments) / float64(s.callReqs*s.clients)
	if s.interval > 0 {
		// Open loop: the schedule, not the nominal rate, fixes the
		// count.
		n = p.seconds / float64(p.segments) / s.interval.Seconds()
	}
	return int64(math.Max(1, math.Round(n)))
}

// running is one workload being driven: the instance, how far its
// clients have got, and everything measured so far.
type running struct {
	w     workload
	spec  wlSpec
	calls int64 // calls per client per segment
	next  int64 // index of each client's next call
	sent  int64 // requests issued since the last setup
	// attempted and failed cover every segment run, warm-up and traced
	// pass included: a failed operation counts wherever it happened.
	attempted, failed int64
	// lateFailed is the part of failed that is open-loop generator
	// lateness, not a wrong or refused answer.
	lateFailed int64

	setupSecs []float64
	segs      []segResult
	all       clientStats // timed segments merged
	sim       simStats
	heapMB    float64
	errs      []error
}

// segResult is what one segment measured.
type segResult struct {
	wall    float64 // seconds
	reqs    int64
	cpu     float64 // user+sys nanoseconds of the whole process
	mallocs uint64
	bytes   uint64
	st      clientStats // all clients merged
}

func (s segResult) reqPerS() float64     { return float64(s.reqs) / s.wall }
func (s segResult) cpuNsPerReq() float64 { return s.cpu / float64(s.reqs) }
func (s segResult) latP50us() float64    { return s.st.lat.quantile(0.50) / 1e3 }

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuseMB forces the collector (twice, so sync.Pool victims go too)
// and reads the heap still in use.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// sleepSlack is how far ahead of a due instant the open-loop generator
// stops sleeping and starts yielding: timer wake-ups on this class of
// host overshoot by tens of microseconds.
const sleepSlack = 100 * time.Microsecond

// runSegment drives every client of r through r.calls calls and
// measures the segment. rec == nil is the normal, untraced case.
func runSegment(r *running, seg int, rec *recorder, parent int32) segResult {
	spec := r.spec
	stats := make([]clientStats, spec.clients)
	var rings []*clientSpans
	if rec != nil {
		for c := 0; c < spec.clients; c++ {
			rings = append(rings, rec.client(spec.name, seg, c, parent))
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			var ring *clientSpans
			if rec != nil {
				ring = rings[c]
			}
			// Open-loop clients are staggered evenly inside one interval.
			first := start.Add(spec.interval * time.Duration(c) / time.Duration(spec.clients))
			for k := int64(0); k < r.calls; k++ {
				i := r.next + k
				t0 := time.Now()
				from := t0
				if spec.interval > 0 {
					due := first.Add(time.Duration(k) * spec.interval)
					for d := due.Sub(t0); d > 0; d = due.Sub(t0) {
						if d > sleepSlack {
							time.Sleep(d - sleepSlack)
						} else {
							runtime.Gosched()
						}
						t0 = time.Now()
					}
					late := t0.Sub(due)
					st.late.add(int64(late))
					if late > spec.interval {
						st.lateCalls++
					}
					from = due
				}
				r.w.call(c, i)
				t1 := time.Now()
				st.lat.add(int64(t1.Sub(from)))
				if ring != nil {
					ring.add(spec.name, t0, t1)
				}
				st.attempted += int64(spec.callReqs)
				r.w.check(c, i, st)
			}
		}(c)
	}
	wg.Wait()

	res := segResult{wall: time.Since(start).Seconds()}
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	for c := range stats {
		res.st.merge(&stats[c])
	}
	res.reqs = res.st.attempted

	// Open-loop honesty: a generator that fell behind its own schedule
	// was not offering the stated load, so its late calls count as
	// failures instead of quietly turning the run closed-loop.
	if spec.interval > 0 {
		offered := float64(spec.callReqs*spec.clients) / spec.interval.Seconds()
		if res.reqPerS() < 0.98*offered {
			late := res.st.lateCalls * int64(spec.callReqs)
			res.st.failed += late
			r.lateFailed += late
		}
	}

	r.next += r.calls
	r.sent += res.reqs
	r.attempted += res.st.attempted
	r.failed += res.st.failed
	return res
}

func (st *clientStats) merge(o *clientStats) {
	st.lat.merge(&o.lat)
	st.virt.merge(&o.virt)
	st.late.merge(&o.late)
	st.lateCalls += o.lateCalls
	st.attempted += o.attempted
	st.failed += o.failed
}

// start generates a workload's inputs and sets it up p.setups times,
// keeping the last instance.
func start(w workload, p plan) (*running, error) {
	r := &running{w: w, spec: w.spec()}
	r.calls = p.callsPerSegment(r.spec)
	w.generate(p.seed)
	for k := 0; k < p.setups; k++ {
		if k > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(p.fast); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", r.spec.name, err)
		}
		r.setupSecs = append(r.setupSecs, time.Since(t0).Seconds())
	}
	return r, nil
}

// measure runs the end-to-end pass over the given workloads: one
// untimed warm-up segment each, then p.segments timed segments each,
// interleaved round-robin so a noisy stretch on the host lands on every
// workload alike, then the end-of-run checks. The recorder is off
// throughout.
func measure(rs []*running, p plan) {
	for _, r := range rs {
		runSegment(r, -1, nil, 0)
	}
	for s := 0; s < p.segments; s++ {
		for _, r := range rs {
			res := runSegment(r, s, nil, 0)
			r.all.merge(&res.st)
			r.segs = append(r.segs, res)
		}
	}
	for _, r := range rs {
		r.finish()
	}
}

// finish runs the workload's end-of-run checks over everything sent so
// far. The first call also fixes the simulated statistics, so they
// describe the same requests whether or not a traced pass follows.
func (r *running) finish() {
	sim, err := r.w.finish(r.sent)
	if r.sim.digest == "" {
		r.sim = sim
	}
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// release closes a workload and reports the heap that let go: the live
// memory of the program objects the workload stood up, without the
// benchmark's own inputs and whatever else the process holds.
func release(r *running) {
	before := heapInuseMB()
	r.w.close()
	r.heapMB = before - heapInuseMB()
}

// depthSampleEvery is how often the traced pass polls the ingress
// queue-depth gauges. Polling takes every device's lock, which is part
// of why it belongs to the traced pass and not to the measured one.
const depthSampleEvery = 5 * time.Millisecond

// tracedPass runs one segment with the recorder off and one with it on
// and returns the workload's own per-layer metrics: the client's view of
// the untraced segment, the layer counters from the workload's
// registries, and what recording cost.
func tracedPass(r *running, rec *recorder) map[string]float64 {
	plain := runSegment(r, 0, nil, 0)

	id := rec.begin("traced segment", r.spec.name, 1, 0)
	stop, done := make(chan struct{}), make(chan struct{})
	var depth int64
	go func() {
		defer close(done)
		t := time.NewTicker(depthSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if d := r.w.layerCounters().queueDepth; d > depth {
					depth = d
				}
			}
		}
	}()
	traced := runSegment(r, 1, rec, id)
	close(stop)
	<-done
	rec.end(id)

	lc := r.w.layerCounters()
	reqs := float64(plain.reqs)
	failed := plain.st.failed + traced.st.failed
	v := map[string]float64{
		"fleet.ring_wait_p50_us":    lc.ringWaitP50us,
		"fleet.ring_wait_p99_us":    lc.ringWaitP99us,
		"fleet.queue_depth_max":     float64(depth),
		"fleet.retries":             float64(lc.retries),
		"fleet.errors":              float64(lc.errors),
		"fleet.rejected":            float64(lc.rejected),
		"client.lat_p99_us":         plain.st.lat.quantile(0.99) / 1e3,
		"client.lat_p999_us":        plain.st.lat.quantile(0.999) / 1e3,
		"client.late_p99_us":        plain.st.late.quantile(0.99) / 1e3,
		"client.allocs_per_req":     float64(plain.mallocs) / reqs,
		"client.bytes_per_req":      float64(plain.bytes) / reqs,
		"client.failed_frac":        float64(failed) / float64(plain.st.attempted+traced.st.attempted),
		"bench.trace_overhead_frac": 1 - traced.reqPerS()/plain.reqPerS(),
	}
	if n := plain.st.late.n; n > 0 {
		v["client.late_frac"] = float64(plain.st.lateCalls) / float64(n)
	} else {
		v["client.late_frac"] = 0
	}
	return v
}

// --- small statistics -------------------------------------------------

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method),
// which is the spread the acceptance rule is written in. Fewer than two
// values have no spread.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}
