package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	"ssdcheck/internal/simclock"
)

func TestSamplerRates(t *testing.T) {
	off := NewTracer(1, 0, 8)
	all := NewTracer(1, 1, 8)
	tenth := NewTracer(1, 0.1, 8)
	hits := 0
	const n = 100000
	for seq := int64(0); seq < n; seq++ {
		if off.Sampled("dev", seq) {
			t.Fatal("rate-0 tracer sampled a request")
		}
		if !all.Sampled("dev", seq) {
			t.Fatal("rate-1 tracer skipped a request")
		}
		if tenth.Sampled("dev", seq) {
			hits++
		}
	}
	if hits < n/10-n/100 || hits > n/10+n/100 {
		t.Errorf("rate-0.1 sampled %d of %d (want ~%d)", hits, n, n/10)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	a := NewTracer(7, 0.5, 8)
	b := NewTracer(7, 0.5, 8)
	c := NewTracer(8, 0.5, 8)
	same, diff := true, true
	for seq := int64(0); seq < 1000; seq++ {
		if a.Sampled("ssd-00", seq) != b.Sampled("ssd-00", seq) {
			same = false
		}
		if a.Sampled("ssd-00", seq) != c.Sampled("ssd-00", seq) {
			diff = false
		}
	}
	if !same {
		t.Error("same seed made different sampling decisions")
	}
	if diff {
		t.Error("different seeds made identical decisions for 1000 requests")
	}
}

func mkTrace(dev string, seq int64) RequestTrace {
	start := simclock.Time(seq * 1000)
	return RequestTrace{
		Device: dev, Seq: seq, Op: "read", LBA: seq * 8, Sectors: 8,
		EET: 100 * time.Microsecond, Latency: 120 * time.Microsecond,
		Spans: []Span{
			{Name: "queue", Start: start, End: start},
			{Name: "submit", Start: start, End: start + 120},
		},
	}
}

func TestRingBounds(t *testing.T) {
	tr := NewTracer(1, 1, 4)
	for seq := int64(0); seq < 10; seq++ {
		tr.RecordTrace(mkTrace("d", seq))
	}
	got := tr.DeviceTraces("d")
	if len(got) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(got))
	}
	for i, rt := range got {
		if want := int64(6 + i); rt.Seq != want {
			t.Errorf("trace %d: seq %d, want %d (newest retained, oldest first)", i, rt.Seq, want)
		}
	}
	if tr.DeviceTraces("missing") != nil {
		t.Error("unknown device returned traces")
	}
}

func TestTracesSorted(t *testing.T) {
	tr := NewTracer(1, 1, 8)
	// Record in scrambled device order, as concurrent shards would.
	tr.RecordTrace(mkTrace("zeta", 0))
	tr.RecordTrace(mkTrace("alpha", 1))
	tr.RecordTrace(mkTrace("zeta", 2))
	tr.RecordTrace(mkTrace("alpha", 0))
	got := tr.Traces()
	want := []struct {
		dev string
		seq int64
	}{{"alpha", 1}, {"alpha", 0}, {"zeta", 0}, {"zeta", 2}}
	if len(got) != len(want) {
		t.Fatalf("got %d traces, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Device != w.dev || got[i].Seq != w.seq {
			t.Errorf("trace %d = %s/%d, want %s/%d", i, got[i].Device, got[i].Seq, w.dev, w.seq)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(1, 1, 8)
		for _, dev := range []string{"b", "a"} {
			for seq := int64(0); seq < 3; seq++ {
				tr.RecordTrace(mkTrace(dev, seq))
			}
		}
		return tr
	}
	var one, two bytes.Buffer
	if err := build().WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("identical tracers exported different bytes")
	}
	var out tracesJSON
	if err := json.Unmarshal(one.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out.Traces) != 6 {
		t.Errorf("exported %d traces, want 6", len(out.Traces))
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(1, 1, 8)
	tr.RecordTrace(mkTrace("d0", 0))
	tr.RecordTrace(mkTrace("d1", 1))
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range out.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Errorf("negative duration event: %+v", ev)
		}
	}
	// 2 thread_name metadata, 2 zero-length queue instants, 2 submit
	// duration events, 2 umbrella request spans.
	if phases["M"] != 2 || phases["i"] != 2 || phases["X"] != 4 {
		t.Errorf("phase counts = %v, want M:2 i:2 X:4", phases)
	}
}

func TestMispredicted(t *testing.T) {
	rt := RequestTrace{PredictedHL: false, ObservedHL: true}
	if !rt.Mispredicted() {
		t.Error("NL-predicted HL-observed not flagged")
	}
	rt.Err = "boom"
	if rt.Mispredicted() {
		t.Error("errored request flagged as misprediction")
	}
	if (RequestTrace{PredictedHL: true, ObservedHL: true}).Mispredicted() {
		t.Error("correct prediction flagged")
	}
}

func TestNopRecorder(t *testing.T) {
	rec := Nop()
	if rec.Sampled("d", 1) {
		t.Error("nop recorder sampled a request")
	}
	rec.RecordTrace(RequestTrace{})
	rec.Event("x", "y")
}

// DeviceTraces returns the retained traces of one device, oldest first.
func (t *Tracer) DeviceTraces(device string) []RequestTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rings[device]
	if r == nil {
		return nil
	}
	return r.oldestFirst()
}

// WriteChromeTrace writes the retained traces (or just the given ones,
// if traces is non-nil) in the Chrome trace_event JSON format, loadable
// in chrome://tracing and Perfetto. Each device renders as one named
// thread; span timestamps are virtual-clock microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer, traces []RequestTrace) error {
	if traces == nil {
		traces = t.Traces()
	}
	return WriteChromeTrace(w, traces)
}
