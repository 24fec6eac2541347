package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Set gives a gauge a fixed value. The library's gauges all read their
// owner's state (GaugeFunc); the exposition tests pin fixed ones.
func (g *Gauge) Set(n int64) { g.fn = func() int64 { return n } }

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // counters only go up
	if got := c.Value(); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
	var g Gauge
	g.Set(42)
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Errorf("gauge = %d, want -7", got)
	}
}

func TestRegistrySameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", Label{"dev", "a"})
	b := r.Counter("x_total", "help", Label{"dev", "a"})
	if a != b {
		t.Error("same name+labels returned different counters")
	}
	other := r.Counter("x_total", "help", Label{"dev", "b"})
	if a == other {
		t.Error("different labels returned the same counter")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Error("registering x_total as gauge after counter did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	// Register in scrambled label order; exposition must sort.
	r.Counter("reqs_total", "requests", Label{"dev", "b"}).Add(2)
	r.Counter("reqs_total", "requests", Label{"dev", "a"}).Add(1)
	r.Gauge("temp", "temperature").Set(31)
	r.Histogram("lat_seconds", "latency", Label{"dev", "a"}).Observe(time.Millisecond)

	var one, two strings.Builder
	if err := r.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("two renders of the same registry differ")
	}
	out := one.String()
	if !strings.Contains(out, `reqs_total{dev="a"} 1`) || !strings.Contains(out, `reqs_total{dev="b"} 2`) {
		t.Errorf("counter series missing:\n%s", out)
	}
	if strings.Index(out, `dev="a"`) > strings.Index(out, `dev="b"`) {
		t.Errorf("series not sorted by labels:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE lat_seconds histogram") {
		t.Errorf("histogram TYPE line missing:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", Label{"path", "a\\b\"c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\\b\"c\nd"`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

// TestHistogramExposition checks the cumulative-bucket invariants the
// Prometheus format requires: non-decreasing bucket counts, +Inf equal
// to _count, le bounds in increasing order, seconds units.
func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", Label{"dev", "a"})
	for _, d := range []time.Duration{100 * time.Microsecond, 150 * time.Microsecond, 10 * time.Millisecond} {
		h.Observe(d)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var prevCum int64
	var prevLE float64
	var infSeen bool
	var count int64
	for _, line := range strings.Split(b.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "lat_seconds_bucket"):
			i := strings.Index(line, `le="`)
			rest := line[i+4:]
			le := rest[:strings.Index(rest, `"`)]
			cum, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if cum < prevCum {
				t.Errorf("cumulative count decreased: %q", line)
			}
			prevCum = cum
			if le == "+Inf" {
				infSeen = true
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", le, err)
			}
			if bound <= prevLE {
				t.Errorf("le bounds not increasing at %q", line)
			}
			if bound > 1 {
				t.Errorf("le %v implausibly large: buckets must be in seconds", bound)
			}
			prevLE = bound
		case strings.HasPrefix(line, "lat_seconds_count"):
			count, _ = strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket")
	}
	if count != 3 || prevCum != 3 {
		t.Errorf("count = %d, final cumulative = %d, want 3", count, prevCum)
	}
	if !strings.Contains(b.String(), "lat_seconds_sum") {
		t.Error("no _sum line")
	}
}

// TestHistogramScaled checks the explicit-scale exposition path: a
// histogram registered with scale 1e3 renders its nanosecond bounds
// as microseconds, while Histogram's default stays seconds. The fleet
// ingress wait histogram rides on this.
func TestHistogramScaled(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramScaled("wait_us", "queue wait", 1e3, Label{"shard", "0"})
	h.Observe(100 * time.Microsecond) // 1e5 ns → le bounds near 100 in µs units
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var sawBucket bool
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "wait_us_bucket") || strings.Contains(line, `le="+Inf"`) {
			continue
		}
		i := strings.Index(line, `le="`)
		rest := line[i+4:]
		bound, err := strconv.ParseFloat(rest[:strings.Index(rest, `"`)], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		// A 100µs observation must land in a bucket whose µs-unit
		// upper bound is ≥100 and of the same magnitude — not 1e-4
		// (seconds rendering) and not 1e5 (raw nanoseconds).
		if bound < 100 || bound > 200 {
			t.Errorf("le = %v µs for a 100µs observation; wrong exposition scale", bound)
		}
		sawBucket = true
	}
	if !sawBucket {
		t.Fatalf("no finite bucket rendered:\n%s", out)
	}
	if !strings.Contains(out, `wait_us_count{shard="0"} 1`) {
		t.Errorf("count series missing:\n%s", out)
	}
	// Same name and labels return the same histogram, scale unchanged.
	if r.HistogramScaled("wait_us", "queue wait", 1e3, Label{"shard", "0"}) != h {
		t.Error("re-registration returned a different histogram")
	}
	// A non-positive scale falls back to the seconds convention.
	r2 := NewRegistry()
	r2.HistogramScaled("bad_scale", "h", 0).Observe(time.Second)
	var b2 strings.Builder
	if err := r2.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), `le="1`) {
		t.Errorf("zero scale did not fall back to seconds:\n%s", b2.String())
	}
}

func TestDropSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests", Label{"device", "a"}).Add(3)
	r.Counter("reqs_total", "requests", Label{"device", "b"}).Add(5)
	r.Histogram("lat_seconds", "latency", Label{"device", "a"}).Observe(time.Millisecond)
	r.Gauge("temp", "temperature").Set(9)

	r.DropSeries(Label{"device", "a"})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `device="a"`) {
		t.Errorf("dropped series still rendered:\n%s", out)
	}
	if !strings.Contains(out, `reqs_total{device="b"} 5`) {
		t.Errorf("unrelated series lost:\n%s", out)
	}
	if !strings.Contains(out, "temp 9") {
		t.Errorf("unlabeled series lost:\n%s", out)
	}
	// The emptied family keeps its header — valid exposition.
	if !strings.Contains(out, "# TYPE lat_seconds histogram") {
		t.Errorf("emptied family header missing:\n%s", out)
	}
	// Re-registering after a drop starts a fresh series.
	if got := r.Counter("reqs_total", "requests", Label{"device", "a"}).Value(); got != 0 {
		t.Errorf("re-registered counter = %d, want 0", got)
	}
}

func TestHistogramAddSnapshot(t *testing.T) {
	var src Histogram
	for _, d := range []time.Duration{50 * time.Microsecond, 2 * time.Millisecond, 7 * time.Millisecond} {
		src.Observe(d)
	}
	var dst Histogram
	dst.Observe(time.Millisecond)
	dst.AddSnapshot(src.Snapshot())

	got := dst.Snapshot()
	if got.Count != 4 {
		t.Errorf("count = %d, want 4", got.Count)
	}
	want := src.Snapshot().Sum + int64(time.Millisecond)
	if got.Sum != want {
		t.Errorf("sum = %d, want %d", got.Sum, want)
	}
	if got.MaxValue() != 7*time.Millisecond {
		t.Errorf("max = %v, want 7ms", got.MaxValue())
	}
	// Folding into an empty histogram reproduces the source exactly.
	var fresh Histogram
	fresh.AddSnapshot(src.Snapshot())
	if fresh.Snapshot() != src.Snapshot() {
		t.Error("snapshot round-trip through AddSnapshot diverged")
	}
}

func TestWritePrometheusMerged(t *testing.T) {
	mk := func(devReqs int64) *Registry {
		r := NewRegistry()
		r.Counter("reqs_total", "requests", Label{"device", "d0"}).Add(devReqs)
		r.Gauge("up", "liveness").Set(1)
		r.Histogram("lat_seconds", "latency", Label{"device", "d0"}).Observe(time.Millisecond)
		return r
	}
	cl := NewRegistry()
	cl.Gauge("cluster_nodes", "member count").Set(2)

	sources := []RegistrySource{
		{Name: "", Reg: cl},
		{Name: "n0", Reg: mk(3)},
		{Name: "n1", Reg: mk(8)},
	}
	var one, two strings.Builder
	if err := WritePrometheusMerged(&one, "node", sources); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusMerged(&two, "node", sources); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("two merged renders differ")
	}
	out := one.String()
	if !strings.Contains(out, `reqs_total{device="d0",node="n0"} 3`) ||
		!strings.Contains(out, `reqs_total{device="d0",node="n1"} 8`) {
		t.Errorf("per-node counter series missing:\n%s", out)
	}
	// The unnamed source's series carry no node label.
	if !strings.Contains(out, "cluster_nodes 2\n") {
		t.Errorf("cluster-level series missing or mislabeled:\n%s", out)
	}
	// One TYPE header per family even when several sources contribute.
	if n := strings.Count(out, "# TYPE reqs_total counter"); n != 1 {
		t.Errorf("reqs_total TYPE header appears %d times, want 1", n)
	}
	// Histogram series carry the node label on buckets too.
	if !strings.Contains(out, `node="n1",le=`) {
		t.Errorf("histogram buckets missing node label:\n%s", out)
	}
}

func TestWritePrometheusMergedTypeConflict(t *testing.T) {
	a := NewRegistry()
	a.Counter("x_total", "h").Inc()
	b := NewRegistry()
	b.Gauge("x_total", "h").Set(1)
	err := WritePrometheusMerged(&strings.Builder{}, "node",
		[]RegistrySource{{Name: "a", Reg: a}, {Name: "b", Reg: b}})
	if err == nil {
		t.Error("conflicting family types merged without error")
	}
}

// TestFuncSeries: a read-at-render series reports its function's value
// when rendered and through the handle a later lookup returns, and a
// second registration under the same key replaces the first.
func TestFuncSeries(t *testing.T) {
	r := NewRegistry()
	var n int64 = 3
	var hs HistogramSnapshot
	hs.Observe(2 * time.Millisecond)
	dev := Label{"device", "a"}
	r.CounterFunc("x_total", "X.", func() int64 { return n }, dev)
	r.GaugeFunc("y", "Y.", func() int64 { return -n })
	r.HistogramFunc("z_seconds", "Z.", func() HistogramSnapshot { return hs }, dev)
	n = 5
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"x_total{device=\"a\"} 5\n",
		"y -5\n",
		"z_seconds_count{device=\"a\"} 1\n",
		"z_seconds_sum{device=\"a\"} 0.002\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
	if got := r.Counter("x_total", "", dev).Value(); got != 5 {
		t.Errorf("looked-up counter = %d, want 5", got)
	}
	if got := r.Gauge("y", "").Value(); got != -5 {
		t.Errorf("looked-up gauge = %d, want -5", got)
	}
	if got := r.Histogram("z_seconds", "", dev).Snapshot().Count; got != 1 {
		t.Errorf("looked-up histogram count = %d, want 1", got)
	}
	r.CounterFunc("x_total", "X.", func() int64 { return 9 }, dev)
	if got := r.Counter("x_total", "", dev).Value(); got != 9 {
		t.Errorf("re-registered counter = %d, want 9", got)
	}
}

// TestFuncSeriesLockOrder: an owner that registers series while
// holding its own lock, and whose series take that lock when read, can
// render and register concurrently without deadlock, because the
// renderer reads series only after releasing the registry's lock.
func TestFuncSeriesLockOrder(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var v int64
	read := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return v
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			mu.Lock()
			v++
			r.CounterFunc("owned_total", "", read, Label{"i", strconv.Itoa(i % 4)})
			mu.Unlock()
		}
	}()
	for {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
