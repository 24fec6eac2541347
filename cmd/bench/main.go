// Command bench runs the repository's key benchmarks and writes the
// parsed results as JSON, so performance numbers can be checked in and
// compared across revisions (see BENCH_PR12.json and tools/bench.sh).
//
// Usage:
//
//	go run ./cmd/bench [-out bench.json] [-benchtime 2s] [-count 1] [-baseline BENCH_PR8.json]
//
// It shells out to `go test -bench` in the repository root and parses
// the standard benchmark output, including custom ReportMetric columns.
// When a baseline document is available (the newest checked-in
// BENCH_PR*.json by default), the output carries per-benchmark deltas
// against it, so a regression shows up in the diff of the checked-in
// file rather than needing a side-by-side run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// keyBenchmarks are the performance gates this wrapper tracks: the two
// hot-path microbenchmarks, fleet throughput (closed-loop per-device
// streams and the many-clients ingress sweep), the diagnosis
// wall-clock, and one full experiment regeneration.
var keyBenchmarks = []string{
	"BenchmarkDeviceSubmit",
	"BenchmarkPredict",
	"BenchmarkPredictAged",
	"BenchmarkFleetSubmit",
	"BenchmarkFleetManyClients",
	"BenchmarkClusterSubmit",
	"BenchmarkHTTPTransportSubmit",
	"BenchmarkDiagnosis",
	"BenchmarkFig03_PrototypeAblation",
	"BenchmarkVolumeRead",
	"BenchmarkVolumeReconstruct",
}

// deltaMetrics are the per-benchmark columns compared against the
// baseline document (when both sides report them).
var deltaMetrics = []string{"ns/op", "predictions/s", "B/op"}

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op"
}

// Delta compares one metric of one benchmark against the baseline.
// Ratio is new/old: for ns/op and B/op smaller is better, for
// predictions/s larger is better.
type Delta struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	Ratio  float64 `json:"ratio"`
}

// Output is the checked-in JSON document.
type Output struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	BenchTime  string   `json:"benchtime"`
	Count      int      `json:"count"`
	Baseline   string   `json:"baseline,omitempty"` // document the deltas compare against
	Benchmarks []Result `json:"benchmarks"`
	Deltas     []Delta  `json:"deltas,omitempty"`
}

func main() {
	out := flag.String("out", "bench.json", "output JSON path (\"-\" for stdout)")
	benchtime := flag.String("benchtime", "2s", "passed to go test -benchtime")
	count := flag.Int("count", 1, "passed to go test -count")
	baseline := flag.String("baseline", "",
		"baseline JSON to diff against (default: newest BENCH_PR*.json other than -out; \"none\" disables)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	pattern := "^(" + strings.Join(keyBenchmarks, "|") + ")$"
	args := []string{
		"test", "-run", "^$", "-bench", pattern, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), ".",
	}
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: go %s: %v\n%s%s", strings.Join(args, " "), err, stderr.String(), stdout.String())
		os.Exit(1)
	}

	doc := Output{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		BenchTime: *benchtime,
		Count:     *count,
	}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no benchmark lines parsed from go test output:\n%s", stdout.String())
		os.Exit(1)
	}

	if path := resolveBaseline(*baseline, *out); path != "" {
		base, err := loadBaseline(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: baseline %s: %v (continuing without deltas)\n", path, err)
		} else {
			doc.Baseline = path
			doc.Deltas = diff(base, doc.Benchmarks)
			for _, d := range doc.Deltas {
				fmt.Fprintf(os.Stderr, "bench: %-48s %-14s %12.4g -> %-12.4g (%.2fx)\n",
					d.Name, d.Metric, d.Old, d.New, d.Ratio)
			}
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s\n", len(doc.Benchmarks), *out)
}

// resolveBaseline picks the document to diff against: the explicit
// -baseline path if given ("none" disables), else the BENCH_PR*.json
// with the highest PR number that is not the file being written.
func resolveBaseline(explicit, out string) string {
	if explicit == "none" {
		return ""
	}
	if explicit != "" {
		return explicit
	}
	matches, _ := filepath.Glob("BENCH_PR*.json")
	best, bestN := "", -1
	for _, m := range matches {
		if filepath.Clean(m) == filepath.Clean(out) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_PR"), ".json"))
		if err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	return best
}

// loadBaseline reads a previously checked-in Output document.
func loadBaseline(path string) (Output, error) {
	var doc Output
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, err
	}
	return doc, nil
}

// diff compares the tracked metrics of every benchmark present in both
// documents, in the new document's order.
func diff(base Output, cur []Result) []Delta {
	old := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		old[r.Name] = r
	}
	var ds []Delta
	for _, r := range cur {
		b, ok := old[r.Name]
		if !ok {
			continue
		}
		for _, metric := range deltaMetrics {
			nv, nok := r.Metrics[metric]
			ov, ook := b.Metrics[metric]
			if !nok || !ook {
				continue
			}
			ratio := 0.0
			switch {
			case ov != 0:
				ratio = nv / ov
			case nv == 0:
				ratio = 1 // 0 -> 0: unchanged (the B/op success case)
			}
			ds = append(ds, Delta{Name: r.Name, Metric: metric, Old: ov, New: nv, Ratio: ratio})
		}
	}
	return ds
}

// parseLine parses one `go test -bench` result line of the form
//
//	BenchmarkName-8   12345   61.2 ns/op   0 B/op   0 allocs/op   1.5 extra/metric
//
// into a Result. Non-benchmark lines return ok=false.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{
		Name:       strings.SplitN(fields[0], "-", 2)[0],
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	// Sub-benchmarks keep their /sub=... suffix but drop the -GOMAXPROCS.
	if slash := strings.Index(fields[0], "/"); slash >= 0 {
		base := fields[0][:slash]
		rest := fields[0][slash:]
		if dash := strings.LastIndex(rest, "-"); dash >= 0 {
			rest = rest[:dash]
		}
		r.Name = base + rest
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
