// Command benchmark is the repository's one repeatable benchmark: six
// workloads that each load a different layer of the stack, the same
// end-to-end metrics for all of them, and a traced run that attributes
// time to layers. It drives the program from outside, through public
// functions only, checks every output, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	go run ./benchmark                        all workloads, interleaved, plus the traced run
//	go run ./benchmark -workload fleet-single -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -workload fleet-single -seed 7 -seconds 10 -trace 1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// timedSegments is S: a wall-clock metric's value is the median of this
// many interleaved segments.
const timedSegments = 6

func main() {
	workload := flag.String("workload", "", "run this one workload and end with the one-line JSON result (default: all, interleaved)")
	seed := flag.Uint64("seed", 42, "the only source of workload randomness")
	seconds := flag.Float64("seconds", 0, "nominal timed seconds per workload (default 10 with -workload, else 18)")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 runs the traced pass and the ladder")
	out := flag.String("out", "", "write the full result JSON here (default .bench_out/result.json without -workload)")
	traceOut := flag.String("trace-out", "", "write the spans as Chrome trace JSON here (default .bench_out/trace.json without -workload)")
	smoke := flag.Bool("smoke", false, "tiny fixed counts, one segment, reduced diagnosis: exercises every path in seconds")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(1, err.Error())
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(2, "unexpected arguments: "+strings.Join(flag.Args(), " "))
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "-trace must be 0 or 1")
	}

	p := plan{seed: *seed, seconds: *seconds, segments: timedSegments, setups: 1}
	names, which := workloadNames(), passBoth
	if *workload != "" {
		names, which = []string{*workload}, passEndToEnd
		if *trace == 1 {
			which = passTraced
		} else {
			// setup_s is sub-second, so one run sets up five times and
			// reports the median.
			p.setups = 5
		}
		if p.seconds == 0 {
			p.seconds = 10
		}
	} else {
		if p.seconds == 0 {
			p.seconds = 3 * timedSegments
		}
		if *out == "" {
			*out = filepath.Join(".bench_out", "result.json")
		}
		if *traceOut == "" {
			*traceOut = filepath.Join(".bench_out", "trace.json")
		}
	}
	if *smoke {
		p = smokePlan(*seed)
	}
	if p.seconds <= 0 {
		fatal(2, "-seconds must be positive")
	}

	var rec *recorder
	if which&passTraced != 0 {
		rec = newRecorder()
	}
	rp, err := runSuite(p, names, which, rec)
	if err != nil {
		fatal(1, err.Error())
	}

	printHost(os.Stdout, rp)
	if which&passEndToEnd != 0 {
		printEndToEnd(os.Stdout, rp)
	}
	printLayers(os.Stdout, rp)
	fmt.Printf("\nelapsed %.1f s\n", rp.ElapsedSec)

	if *out != "" {
		if err := writeJSON(*out, rp); err != nil {
			fatal(1, err.Error())
		}
		fmt.Printf("result: %s\n", *out)
	}
	if *traceOut != "" && rec != nil {
		if err := writeFile(*traceOut, rec.writeChrome); err != nil {
			fatal(1, err.Error())
		}
		fmt.Printf("spans:  %s\n", *traceOut)
	}
	if *workload != "" {
		fmt.Println(resultLine(rp, which))
	}
	if rp.failed() {
		fatal(1, "correctness checks failed")
	}
}

// smokePlan is the -smoke shape: every path, tiny counts.
func smokePlan(seed uint64) plan {
	return plan{seed: seed, seconds: 0.02, segments: 1, setups: 1, fast: true}
}

// resultLine is the last line of a -workload run: one JSON object with
// exactly correct, attempted, failed and metrics.
func resultLine(rp *report, which pass) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: !rp.failed(), Metrics: map[string]mv{}}
	wr := rp.Workloads[0]
	res.Attempted, res.Failed = wr.Attempted, wr.Failed
	rows := wr.EndToEnd
	if which == passTraced {
		rows = append(append([]metricValue(nil), wr.PerLayer...), rp.Ladder...)
	}
	for _, m := range rows {
		res.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(1, err.Error()) // only a non-finite value can do this
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	})
}

// writeFile creates path (and its directory) and hands it to fill,
// reporting the first of fill's and Close's errors.
func writeFile(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}
