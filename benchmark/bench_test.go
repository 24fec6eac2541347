package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the metric and
// workload tables the harness actually reports from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n got %+v\nwant %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n got %+v\nwant %+v", bf.PerLayer, perLayer)
	}
	ws := allWorkloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if s := w.spec(); bf.Workloads[i].Name != s.name || bf.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness has %q / %q",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, s.name, s.why)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q named twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// exactlyOnce checks that rows hold every name of defs once, each with a
// finite value.
func exactlyOnce(t *testing.T, where string, defs []metricDef, rows []metricValue) {
	t.Helper()
	count := map[string]int{}
	for _, m := range rows {
		count[m.Name]++
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", where, m.Name, m.Value)
		}
	}
	for _, d := range defs {
		if count[d.Name] != 1 {
			t.Errorf("%s: %s reported %d times, want once", where, d.Name, count[d.Name])
		}
	}
	if len(rows) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", where, len(rows), len(defs))
	}
}

// TestSmoke runs the whole harness — every workload, the traced pass and
// the ladder — at smoke size, then the end-to-end pass a second time,
// and checks what the one command promises.
func TestSmoke(t *testing.T) {
	p := smokePlan(42)
	rec := newRecorder()
	rp, err := runSuite(p, workloadNames(), passBoth, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rp.Errors {
		t.Errorf("suite: %s", e)
	}
	if len(rp.Workloads) != len(workloadNames()) {
		t.Fatalf("%d workloads reported, want %d", len(rp.Workloads), len(workloadNames()))
	}
	for i, wr := range rp.Workloads {
		// A generator that fell behind its schedule (a busy test host)
		// is not a wrong answer from the program; everything else is.
		if wr.Failed != wr.LateFailed || len(wr.Errors) != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d (late %d), errors %v", wr.Name, wr.Attempted, wr.Failed, wr.LateFailed, wr.Errors)
		}
		exactlyOnce(t, wr.Name+" end-to-end", endToEnd, wr.EndToEnd)
		exactlyOnce(t, wr.Name+" per-layer", perLayer, append(append([]metricValue(nil), wr.PerLayer...), rp.Ladder...))

		// The one-line result carries exactly the metrics BENCHMARK.json
		// names for that pass.
		one := *rp
		one.Workloads = rp.Workloads[i : i+1]
		for which, defs := range map[pass][]metricDef{passEndToEnd: endToEnd, passTraced: perLayer} {
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(&one, which)), &line); err != nil {
				t.Fatalf("%s: result line: %v", wr.Name, err)
			}
			if line.Correct == nil || line.Attempted < 1 || line.Failed != wr.LateFailed || len(line.Metrics) != len(defs) {
				t.Errorf("%s: result line %+v", wr.Name, line)
			}
			for _, d := range defs {
				if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: result line lacks %s [%s]", wr.Name, d.Name, d.Unit)
				}
			}
		}
	}
	for _, c := range rp.Chains {
		if !c.SumOK {
			t.Errorf("ladder chain %q: self times sum to %v, top rung %v", c.Name, c.SumNs, c.TopNs)
		}
	}

	var spans bytes.Buffer
	if err := rec.writeChrome(&spans); err != nil {
		t.Fatal(err)
	}
	if kept, _ := rec.counts(); kept == 0 || !json.Valid(spans.Bytes()) {
		t.Errorf("span file: %d spans kept, valid JSON %v", kept, json.Valid(spans.Bytes()))
	}

	// Same seed, same plan: everything on the virtual clock repeats
	// exactly.
	again, err := runSuite(p, workloadNames(), passEndToEnd, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range rp.Workloads {
		b := again.Workloads[i]
		if a.SimDigest != b.SimDigest || a.SimDigest == "" {
			t.Errorf("%s: sim_digest %q then %q", a.Name, a.SimDigest, b.SimDigest)
		}
		for _, name := range []string{"hl_accuracy", "nl_accuracy", "virt_p999_us"} {
			if av, bv := a.metric(name).Value, b.metric(name).Value; av != bv {
				t.Errorf("%s: %s %v then %v", a.Name, name, av, bv)
			}
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	if h.quantile(0.5) != 0 {
		t.Error("empty histogram should read 0")
	}
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("quantile(%v) = %v, want %v within one bucket", q, got, want)
		}
	}
	var o hist
	o.add(1 << 40)
	h.merge(&o)
	if got := h.quantile(1); got != 1<<40 {
		t.Errorf("max after merge = %v", got)
	}
}

// TestIQRMatchesPython pins iqr to statistics.quantiles(v, n=4), the
// spread the acceptance rule is written in.
func TestIQRMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	if got := iqr([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}); math.Abs(got-27.5) > 1e-12 {
		t.Errorf("iqr = %v, want 27.5", got)
	}
	// statistics.quantiles([3,1,2,10,7,5], n=4) = [1.75, 4.0, 7.75]
	if got := iqr([]float64{3, 1, 2, 10, 7, 5}); math.Abs(got-6) > 1e-12 {
		t.Errorf("iqr = %v, want 6", got)
	}
	if iqr([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestSelfTimesKeepNegatives(t *testing.T) {
	c := selfTimes("t", []string{"a", "b", "c"}, []rung{{"r1", 100}, {"r2", 90}, {"r3", 250}})
	if !c.Rows[1].Unresolved || c.Rows[1].SelfNs != -10 {
		t.Errorf("negative self time must be kept and marked unresolved: %+v", c.Rows[1])
	}
	if c.Rows[0].Unresolved || c.Rows[2].Unresolved || !c.SumOK || c.SumNs != 250 {
		t.Errorf("chain %+v", c)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "req_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	a := newMetric(d, 100, 101, 99, 100, 102, 98)
	cases := []struct {
		b    metricValue
		want string
	}{
		{newMetric(d, 105, 104, 106, 105, 103, 107), "within"},
		{newMetric(d, 125, 124, 126, 125, 123, 127), "better"},
		{newMetric(d, 80, 81, 79, 80, 82, 78), "worse"},
		{newMetric(d, 60, 140, 70, 150, 90, 120), "unresolved"}, // its own spread exceeds the bound
		{newMetric(d, 160, 240, 170, 250, 190, 220), "better"},  // noisy, but every segment beats every segment of a
	}
	for _, c := range cases {
		if _, got := judge(a, c.b); got != c.want {
			t.Errorf("judge(%v vs %v) = %s, want %s", a.Segments, c.b.Segments, got, c.want)
		}
	}
}
