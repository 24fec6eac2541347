package main

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// The span recorder is the benchmark's own tracer: it lives in the
// benchmark's files and wraps only calls into public functions, so it
// sees layer boundaries from outside. It is off (nil) for every
// end-to-end measurement; the traced pass turns it on and
// bench.trace_overhead_frac reports what that cost.

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. parent is the id of the enclosing span (0 = none).
type span struct {
	id, parent int32
	name       string
	workload   string
	segment    int32
	client     int32
	start, end int64
}

// spanRingCap bounds what one client keeps: the newest spanRingCap call
// spans. A traced pass may make more calls than that; the overflow is
// counted, not stored, so memory stays fixed whatever the pass length.
const spanRingCap = 1 << 13

// clientSpans is one client's ring of call spans. Single-owner while
// the client runs.
type clientSpans struct {
	buf     []span
	n       int64 // spans ever recorded
	rec     *recorder
	parent  int32
	wl      string
	segment int32
	client  int32
}

func (c *clientSpans) add(name string, start, end time.Time) {
	c.buf[c.n%spanRingCap] = span{
		parent: c.parent, name: name, workload: c.wl, segment: c.segment, client: c.client,
		start: int64(start.Sub(c.rec.epoch)), end: int64(end.Sub(c.rec.epoch)),
	}
	c.n++
}

// recorder collects the structural spans (workload, segment, ladder
// rung) under a mutex and hands out per-client rings for call spans.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	top     []span
	clients []*clientSpans
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a structural span and returns its id; end closes it.
func (r *recorder) begin(name, workload string, segment int, parent int32) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.top) + 1)
	r.top = append(r.top, span{
		id: id, parent: parent, name: name, workload: workload, segment: int32(segment), client: -1,
		start: int64(time.Since(r.epoch)),
	})
	return id
}

func (r *recorder) end(id int32) {
	r.mu.Lock()
	r.top[id-1].end = int64(time.Since(r.epoch))
	r.mu.Unlock()
}

// client returns a fresh call-span ring whose spans hang off parent.
func (r *recorder) client(workload string, segment, client int, parent int32) *clientSpans {
	c := &clientSpans{
		buf: make([]span, spanRingCap), rec: r, parent: parent,
		wl: workload, segment: int32(segment), client: int32(client),
	}
	r.mu.Lock()
	r.clients = append(r.clients, c)
	r.mu.Unlock()
	return c
}

// counts reports spans kept and spans that fell out of a client ring.
func (r *recorder) counts() (kept, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept = int64(len(r.top))
	for _, c := range r.clients {
		k := c.n
		if k > spanRingCap {
			dropped += k - spanRingCap
			k = spanRingCap
		}
		kept += k
	}
	return kept, dropped
}

// writeChrome renders every kept span in the Chrome trace_event format
// (chrome://tracing, Perfetto): one complete ("X") event per span, the
// workload as the process, the client as the thread, and the parent id
// in args.
func (r *recorder) writeChrome(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	pids := map[string]int{}
	first := true
	emit := func(s span) {
		pid, ok := pids[s.workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.workload] = pid
		}
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		fmt.Fprintf(bw, `%s{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d,"workload":%q,"segment":%d}}`,
			sep, s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, pid, s.client+1, s.id, s.parent, s.workload, s.segment)
	}
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`+"\n")
	for _, s := range r.top {
		emit(s)
	}
	// Call spans take their ids here, after the structural ones.
	id := int32(len(r.top))
	for _, c := range r.clients {
		k := c.n
		if k > spanRingCap {
			k = spanRingCap
		}
		for i := int64(0); i < k; i++ {
			s := c.buf[(c.n-k+i)%spanRingCap]
			id++
			s.id = id
			emit(s)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
