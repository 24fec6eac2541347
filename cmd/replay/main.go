// Command replay runs a block trace against a simulated SSD — once
// plainly, and once more printing SSDcheck's per-request predictions —
// and reports the latency distribution and prediction accuracy.
//
// Trace files hold one request per line: "R|W|T <lba> <sectors>"
// (# comments and blank lines ignored). Without -trace, a synthetic
// workload from the Table II set is generated instead.
//
// Usage:
//
//	replay -preset A -workload Web -requests 50000
//	replay -preset D -trace mytrace.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ssdcheck"
	"ssdcheck/internal/stats"
	"ssdcheck/internal/trace"
)

func main() {
	preset := flag.String("preset", "A", "device preset (A..G, H)")
	traceFile := flag.String("trace", "", "trace file to replay (overrides -workload)")
	workload := flag.String("workload", "RW Mixed", "synthetic workload when no trace file is given")
	requests := flag.Int("requests", 50000, "request count for synthetic workloads")
	seed := flag.Uint64("seed", 42, "simulation seed")
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray positional argument ("replay mytrace.txt") used to be
		// silently ignored and the defaults ran; fail loudly instead.
		fmt.Fprintf(os.Stderr, "replay: unexpected arguments: %s (use -trace FILE)\n",
			strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	if err := run(*preset, *traceFile, *workload, *requests, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(preset, traceFile, workload string, requests int, seed uint64) error {
	cfg, err := ssdcheck.Preset(preset, seed)
	if err != nil {
		return err
	}
	dev, err := ssdcheck.NewSSD(cfg)
	if err != nil {
		return err
	}

	var reqs []ssdcheck.Request
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		reqs, err = trace.ReadRequests(f)
		if err != nil {
			return err
		}
		if adj := trace.ClampToCapacity(reqs, dev.CapacitySectors()); adj > 0 {
			fmt.Printf("note: %d requests clamped to the %d-sector device\n", adj, dev.CapacitySectors())
		}
	} else {
		spec, err := trace.ByName(workload)
		if err != nil {
			return err
		}
		reqs = ssdcheck.GenerateWorkload(spec, dev.CapacitySectors(), seed+1, requests)
	}
	now := ssdcheck.Precondition(dev, seed, 1.3, 0)
	fmt.Printf("replaying %d requests on %s...\n", len(reqs), dev.Name())

	feats, now, err := ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{Seed: seed})
	if err != nil {
		return fmt.Errorf("diagnosis: %w", err)
	}
	pr := ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})

	var rlat, wlat stats.Sample
	var hlSeen, hlHit, predHL int
	for _, req := range reqs {
		pred := pr.Predict(req, now)
		done := dev.Submit(req, now)
		pr.Observe(req, now, done)
		lat := done.Sub(now)
		if req.Op == ssdcheck.Read {
			rlat.Add(float64(lat))
		} else if req.Op == ssdcheck.Write {
			wlat.Add(float64(lat))
		}
		if pred.HL {
			predHL++
		}
		if pr.Classify(req.Op, lat) {
			hlSeen++
			if pred.HL {
				hlHit++
			}
		}
		now = done
	}

	printDist := func(name string, s *stats.Sample) {
		if s.Len() == 0 {
			return
		}
		fmt.Printf("%-7s n=%-8d p50=%-10v p95=%-10v p99=%-10v p99.9=%v\n",
			name, s.Len(),
			time.Duration(s.Percentile(50)).Round(time.Microsecond),
			time.Duration(s.Percentile(95)).Round(time.Microsecond),
			time.Duration(s.Percentile(99)).Round(time.Microsecond),
			time.Duration(s.Percentile(99.9)).Round(time.Microsecond))
	}
	printDist("reads", &rlat)
	printDist("writes", &wlat)
	if hlSeen > 0 {
		fmt.Printf("high-latency requests: %d (%.2f%%), predicted: %d (%.1f%% HL accuracy)\n",
			hlSeen, 100*float64(hlSeen)/float64(len(reqs)), hlHit, 100*float64(hlHit)/float64(hlSeen))
	}
	fmt.Printf("predictor flagged %d requests; enabled=%v\n", predHL, pr.Enabled())
	return nil
}
