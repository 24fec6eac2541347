package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"ssdcheck/internal/simclock"
)

// Span is one named stage of a request's life, on the virtual clock.
// Stages that consume no virtual time (prediction, calibration, routing)
// are instants with Start == End.
type Span struct {
	Name  string        `json:"name"`
	Start simclock.Time `json:"start_ns"`
	End   simclock.Time `json:"end_ns"`
}

// RequestTrace is the full recorded life of one sampled request:
// queue → route → predict → (backoff/submit)* → calibrate, plus the
// prediction and the observed outcome.
type RequestTrace struct {
	Device string `json:"device"`
	// Node names the cluster member that served the request; filled by
	// the cluster's merged trace view, empty in single-fleet runs.
	Node        string        `json:"node,omitempty"`
	Seq         int64         `json:"seq"`
	Op          string        `json:"op"`
	LBA         int64         `json:"lba"`
	Sectors     int           `json:"sectors"`
	PredictedHL bool          `json:"predicted_hl"`
	ObservedHL  bool          `json:"observed_hl"`
	EET         time.Duration `json:"eet_ns"`
	Latency     time.Duration `json:"latency_ns"`
	Retries     int           `json:"retries,omitempty"`
	TimedOut    bool          `json:"timed_out,omitempty"`
	Err         string        `json:"error,omitempty"`
	Spans       []Span        `json:"spans"`
}

// Mispredicted reports whether the prediction missed the observed
// class — the requests worth pulling a trace for.
func (t RequestTrace) Mispredicted() bool {
	return t.Err == "" && t.PredictedHL != t.ObservedHL
}

// ring is a bounded per-device trace buffer; the newest cap traces win.
type ring struct {
	buf  []RequestTrace
	next int
	full bool
}

func (r *ring) add(t RequestTrace) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
		return
	}
	r.buf[r.next] = t
	r.next++
	if r.next == cap(r.buf) {
		r.next = 0
		r.full = true
	}
}

// oldestFirst returns the ring contents in recording order.
func (r *ring) oldestFirst() []RequestTrace {
	out := make([]RequestTrace, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// Tracer samples request traces into bounded per-device rings.
//
// Sampling is deterministic: the decision for (device, seq) is a hash
// of the seed, the device name, and the sequence number, compared
// against the configured rate. The same seed therefore samples the
// same requests in every run at every shard count, and the exported
// bytes are identical. Rings are per device (not one global ring) so
// cross-device completion interleaving — the one scheduling-dependent
// order in the fleet — cannot leak into the export.
type Tracer struct {
	seed      uint64
	threshold uint64 // sample when hash < threshold
	perDevice int

	mu    sync.Mutex
	rings map[string]*ring
}

// NewTracer returns a tracer sampling the given fraction of requests
// (rate clamped to [0,1]; 0 disables sampling entirely) and keeping
// the most recent perDevice traces per device (<=0 defaults to 256).
func NewTracer(seed uint64, rate float64, perDevice int) *Tracer {
	if perDevice <= 0 {
		perDevice = 256
	}
	t := &Tracer{seed: seed, perDevice: perDevice, rings: make(map[string]*ring)}
	switch {
	case rate <= 0:
		t.threshold = 0
	case rate >= 1:
		t.threshold = math.MaxUint64
	default:
		t.threshold = uint64(rate * float64(math.MaxUint64))
	}
	return t
}

// sampleHash mixes (seed, device, seq) through FNV-1a and a splitmix64
// finalizer into a uniform 64-bit value.
func sampleHash(seed uint64, device string, seq int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(device); i++ {
		h = (h ^ uint64(device[i])) * 1099511628211
	}
	x := seed ^ h ^ uint64(seq)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sampled implements Recorder.
func (t *Tracer) Sampled(device string, seq int64) bool {
	if t.threshold == 0 {
		return false
	}
	if t.threshold == math.MaxUint64 {
		return true
	}
	return sampleHash(t.seed, device, seq) < t.threshold
}

// RecordTrace implements Recorder.
func (t *Tracer) RecordTrace(rt RequestTrace) {
	t.mu.Lock()
	r := t.rings[rt.Device]
	if r == nil {
		r = &ring{buf: make([]RequestTrace, 0, t.perDevice)}
		t.rings[rt.Device] = r
	}
	r.add(rt)
	t.mu.Unlock()
}

// Event implements Recorder; the tracer has no counter store, so
// events are dropped (pair the tracer with a Registry via Observer to
// keep them).
func (t *Tracer) Event(string, string) {}

// Traces returns every retained trace, sorted by device then sequence
// number — a deterministic order however shards interleaved.
func (t *Tracer) Traces() []RequestTrace {
	t.mu.Lock()
	devices := make([]string, 0, len(t.rings))
	for d := range t.rings {
		devices = append(devices, d)
	}
	sort.Strings(devices)
	var out []RequestTrace
	for _, d := range devices {
		out = append(out, t.rings[d].oldestFirst()...)
	}
	t.mu.Unlock()
	return out
}

// tracesJSON is the JSON export envelope.
type tracesJSON struct {
	Traces []RequestTrace `json:"traces"`
}

// WriteJSON writes every retained trace as one indented JSON document.
// The bytes are identical across runs with the same seed and workload.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	ts := t.Traces()
	if ts == nil {
		ts = []RequestTrace{}
	}
	return enc.Encode(tracesJSON{Traces: ts})
}

// chromeEvent is one entry of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders traces in the Chrome trace_event JSON
// format. Devices map to thread IDs in sorted-name order, with
// metadata events naming each thread after its device.
func WriteChromeTrace(w io.Writer, traces []RequestTrace) error {
	devices := make(map[string]int)
	names := make([]string, 0)
	for _, rt := range traces {
		if _, ok := devices[rt.Device]; !ok {
			devices[rt.Device] = 0
			names = append(names, rt.Device)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		devices[n] = i
	}

	events := make([]chromeEvent, 0, len(traces)*8)
	for _, n := range names {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: devices[n],
			Args: map[string]any{"name": n},
		})
	}
	for _, rt := range traces {
		tid := devices[rt.Device]
		label := fmt.Sprintf("%s seq=%d", rt.Op, rt.Seq)
		args := map[string]any{
			"device": rt.Device, "seq": rt.Seq, "op": rt.Op,
			"lba": rt.LBA, "sectors": rt.Sectors,
			"predicted_hl": rt.PredictedHL, "observed_hl": rt.ObservedHL,
			"eet_ns": int64(rt.EET), "latency_ns": int64(rt.Latency),
		}
		if rt.Err != "" {
			args["error"] = rt.Err
		}
		for _, sp := range rt.Spans {
			ev := chromeEvent{
				Name: sp.Name, Cat: label, PID: 1, TID: tid,
				TS: float64(sp.Start) / 1e3,
			}
			if sp.End > sp.Start {
				ev.Ph = "X"
				ev.Dur = float64(sp.End-sp.Start) / 1e3
			} else {
				ev.Ph = "i"
				ev.Args = map[string]any{"scope": "t"}
			}
			events = append(events, ev)
		}
		// One umbrella span per request so the whole life reads as a
		// single bar with the request metadata attached.
		if len(rt.Spans) > 0 {
			start := rt.Spans[0].Start
			end := rt.Spans[len(rt.Spans)-1].End
			events = append(events, chromeEvent{
				Name: label, Cat: "request", Ph: "X", PID: 1, TID: tid,
				TS: float64(start) / 1e3, Dur: float64(end-start) / 1e3,
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
