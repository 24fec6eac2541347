package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostFacts say where the numbers were taken, so two result files can
// be told apart before they are compared.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitCommit  string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
}

func readHostFacts(seed uint64) hostFacts {
	h := hostFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GitCommit: "unknown", Seed: seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The toolchain stamps the revision when it builds inside a git
	// work tree; a bare checkout has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	return h
}

// metricValue is one reported number. Segments holds every value the
// headline was taken from (timed segments, or set-up repetitions); a
// metric measured once has one.
type metricValue struct {
	Name     string    `json:"name"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Value    float64   `json:"value"`
	Segments []float64 `json:"segments,omitempty"`
	IQR      float64   `json:"iqr"`
	// Noisy marks a metric whose own spread (IQR over median) exceeds
	// its bound: a later delta of that size cannot be told from noise.
	Noisy bool `json:"noisy,omitempty"`
}

func newMetric(d metricDef, segs ...float64) metricValue {
	m := metricValue{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
		Value: median(segs), Segments: segs, IQR: iqr(segs)}
	m.Noisy = d.Bound > 0 && m.Value != 0 && m.IQR/math.Abs(m.Value) > d.Bound
	return m
}

// workloadReport is one workload's results.
type workloadReport struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	CallUnit  string `json:"call_unit"`
	Clients   int    `json:"clients"`
	Calls     int64  `json:"calls_per_client_per_segment"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// LateFailed is the share of Failed that is open-loop calls sent more
	// than one interval late while the generator missed its offered rate.
	LateFailed int64         `json:"late_failed,omitempty"`
	SimDigest  string        `json:"sim_digest"`
	EndToEnd   []metricValue `json:"end_to_end,omitempty"`
	PerLayer   []metricValue `json:"per_layer,omitempty"`
	Errors     []string      `json:"errors,omitempty"`
}

func (wr *workloadReport) metric(name string) *metricValue {
	for i := range wr.EndToEnd {
		if wr.EndToEnd[i].Name == name {
			return &wr.EndToEnd[i]
		}
	}
	return nil
}

// report is the whole result file.
type report struct {
	Host       hostFacts        `json:"host"`
	Seconds    float64          `json:"seconds_per_workload"`
	Segments   int              `json:"segments_per_workload"`
	Workloads  []workloadReport `json:"workloads"`
	Ladder     []metricValue    `json:"ladder,omitempty"`
	Chains     []chainReport    `json:"ladder_self_times,omitempty"`
	SpansKept  int64            `json:"spans_kept,omitempty"`
	SpansLost  int64            `json:"spans_dropped,omitempty"`
	ElapsedSec float64          `json:"elapsed_s"`
	Errors     []string         `json:"errors,omitempty"`
}

// failed reports whether any correctness check failed anywhere.
func (rp *report) failed() bool {
	if len(rp.Errors) > 0 {
		return true
	}
	for _, w := range rp.Workloads {
		if w.Failed > 0 || len(w.Errors) > 0 {
			return true
		}
	}
	return false
}

// endToEndMetrics turns a measured workload into its end-to-end rows.
func endToEndMetrics(r *running) []metricValue {
	per := func(f func(segResult) float64) []float64 {
		out := make([]float64, len(r.segs))
		for i, s := range r.segs {
			out[i] = f(s)
		}
		return out
	}
	var out []metricValue
	for _, d := range endToEnd {
		var vals []float64
		switch d.Name {
		case "req_per_s":
			vals = per(segResult.reqPerS)
		case "cpu_ns_per_req":
			vals = per(segResult.cpuNsPerReq)
		case "lat_p50_us":
			vals = per(segResult.latP50us)
		case "hl_accuracy":
			vals = []float64{r.sim.hlAccuracy}
		case "nl_accuracy":
			vals = []float64{r.sim.nlAccuracy}
		case "virt_p999_us":
			vals = []float64{r.all.virt.quantile(0.999) / 1e3}
		case "heap_mb":
			vals = []float64{r.heapMB}
		case "setup_s":
			vals = r.setupSecs
		}
		out = append(out, newMetric(d, vals...))
	}
	return out
}

// layerMetrics turns a name→value map into per-layer rows, in table
// order.
func layerMetrics(vals map[string]float64) []metricValue {
	var out []metricValue
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			out = append(out, newMetric(d, v))
		}
	}
	return out
}

// --- printing ---------------------------------------------------------

func fmtVal(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1e6:
		return fmt.Sprintf("%.4g", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

func printEndToEnd(w io.Writer, rp *report) {
	fmt.Fprintf(w, "\nEnd-to-end (recorder off; value = median of segments, ±IQR; * = spread exceeds the bound)\n")
	fmt.Fprintf(w, "%-16s", "metric [unit]")
	for _, wr := range rp.Workloads {
		fmt.Fprintf(w, " %22s", wr.Name)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-16s", fmt.Sprintf("%s [%s]", d.Name, d.Unit))
		for i := range rp.Workloads {
			m := rp.Workloads[i].metric(d.Name)
			if m == nil {
				fmt.Fprintf(w, " %22s", "-")
				continue
			}
			cell := fmtVal(m.Value)
			if len(m.Segments) > 1 {
				cell += " ±" + fmtVal(m.IQR)
			}
			if m.Noisy {
				cell += "*"
			}
			fmt.Fprintf(w, " %22s", cell)
		}
		fmt.Fprintln(w)
	}
	for _, wr := range rp.Workloads {
		fmt.Fprintf(w, "%-14s attempted=%d failed=%d (late %d) failed_frac=%g sim_digest=%s (%s; %d client(s) × %d calls/segment)\n",
			wr.Name, wr.Attempted, wr.Failed, wr.LateFailed, float64(wr.Failed)/math.Max(1, float64(wr.Attempted)), wr.SimDigest, wr.CallUnit, wr.Clients, wr.Calls)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
		}
	}
}

func printLayers(w io.Writer, rp *report) {
	if len(rp.Workloads) > 0 && len(rp.Workloads[0].PerLayer) > 0 {
		fmt.Fprintf(w, "\nPer-layer, from each workload's traced pass\n%-34s", "metric [unit]")
		for _, wr := range rp.Workloads {
			fmt.Fprintf(w, " %14s", wr.Name)
		}
		fmt.Fprintln(w)
		// Every traced workload reports the same rows, in table order.
		for i, m := range rp.Workloads[0].PerLayer {
			fmt.Fprintf(w, "%-34s", fmt.Sprintf("%s [%s]", m.Name, m.Unit))
			for _, wr := range rp.Workloads {
				fmt.Fprintf(w, " %14s", fmtVal(wr.PerLayer[i].Value))
			}
			fmt.Fprintln(w)
		}
	}
	if len(rp.Ladder) > 0 {
		fmt.Fprintf(w, "\nPer-layer, from the ladder (one stream through each layer's entry point)\n")
		for _, m := range rp.Ladder {
			fmt.Fprintf(w, "%-34s %14s %s\n", m.Name, fmtVal(m.Value), m.Unit)
		}
	}
	for _, c := range rp.Chains {
		fmt.Fprintf(w, "\nSelf time — %s (ns per request)\n%-22s %-30s %12s %12s\n", c.Name, "layer", "rung", "rung", "self")
		for _, row := range c.Rows {
			self := fmtVal(row.SelfNs)
			if row.Unresolved {
				self += " unresolved"
			}
			fmt.Fprintf(w, "%-22s %-30s %12s %12s\n", row.Layer, row.Rung, fmtVal(row.RungNs), self)
		}
		ok := "ok"
		if !c.SumOK {
			ok = "MISMATCH"
		}
		fmt.Fprintf(w, "%-22s %-30s %12s %12s  sum check %s\n", "", "sum of self", fmtVal(c.TopNs), fmtVal(c.SumNs), ok)
	}
	if rp.SpansKept > 0 {
		fmt.Fprintf(w, "\nspans kept %d, dropped from full client rings %d\n", rp.SpansKept, rp.SpansLost)
	}
}

func printHost(w io.Writer, rp *report) {
	h := rp.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s/%s commit=%s seed=%d; %.3g s in %d segments per workload\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.GOOS, h.GOARCH, h.GitCommit, h.Seed, rp.Seconds, rp.Segments)
}
