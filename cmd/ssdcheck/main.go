// Command ssdcheck diagnoses a simulated black-box SSD: it preconditions
// the device, runs the paper's diagnosis code snippets, prints the
// extracted Table-I-style feature row and the performance-model
// parameters, and optionally validates the resulting predictor on a
// workload replay.
//
// Usage:
//
//	ssdcheck -preset D [-seed 7] [-validate "RW Mixed"] [-requests 40000]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ssdcheck"
	"ssdcheck/internal/extract"
	"ssdcheck/internal/trace"
)

func main() {
	preset := flag.String("preset", "A", "device preset to diagnose (A..G, H)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	validate := flag.String("validate", "", "workload to validate prediction accuracy on (e.g. \"RW Mixed\", \"Web\"); empty skips")
	requests := flag.Int("requests", 40000, "validation replay length")
	save := flag.String("save", "", "write the extracted features to this JSON file")
	load := flag.String("load", "", "reuse features from this JSON file instead of diagnosing")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ssdcheck: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	if err := run(os.Stdout, *preset, *seed, *validate, *requests, *save, *load); err != nil {
		fmt.Fprintln(os.Stderr, "ssdcheck:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, preset string, seed uint64, validate string, requests int, save, load string) error {
	// Resolve the workload before the device is preconditioned and
	// diagnosed, so a misspelt name fails at once.
	var spec ssdcheck.Workload
	if validate != "" {
		var err error
		if spec, err = trace.ByName(validate); err != nil {
			return err
		}
	}
	cfg, err := ssdcheck.Preset(preset, seed)
	if err != nil {
		return err
	}
	dev, err := ssdcheck.NewSSD(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "preconditioning %s (SNIA-style purge + 1.3x random fill)...\n", dev.Name())
	now := ssdcheck.Precondition(dev, seed, 1.3, 0)

	var feats *ssdcheck.Features
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		defer f.Close()
		var device string
		feats, device, err = extract.LoadFeatures(f)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded saved diagnosis of %q from %s\n\n", device, load)
	} else {
		fmt.Fprintln(out, "running diagnosis snippets (thresholds, volume scans, buffer analysis)...")
		start := time.Now()
		feats, now, err = ssdcheck.Diagnose(dev, now, ssdcheck.DiagnosisOpts{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "diagnosis done in %v (host wall clock)\n\n", time.Since(start).Round(time.Millisecond))
	}

	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := feats.Save(f, dev.Name()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "features saved to %s\n", save)
	}

	fmt.Fprintln(out, "extracted features (Table I row):")
	fmt.Fprintln(out, "  "+feats.TableRow(dev.Name()))
	fmt.Fprintf(out, "  read/write NL thresholds: %v / %v\n", feats.ReadThreshold, feats.WriteThreshold)
	fmt.Fprintf(out, "  flush overhead: %v, GC overhead: %v\n", feats.FlushOverhead, feats.GCOverhead)
	fmt.Fprintf(out, "  GC interval samples (writes): %d collected\n", len(feats.GCIntervalWrites))
	if feats.SLCCachePages > 0 {
		fmt.Fprintf(out, "  SLC cache region: %d pages (fold stall ~%v)\n", feats.SLCCachePages, feats.SLCFoldOverhead.Round(time.Millisecond))
	}

	if validate == "" {
		return nil
	}

	fmt.Fprintf(out, "\nvalidating predictor on %s (%d requests)...\n", spec.Name, requests)
	pr := ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})
	reqs := ssdcheck.GenerateWorkload(spec, dev.CapacitySectors(), seed+99, requests)
	rep := ssdcheck.EvaluateAccuracy(dev, pr, reqs, now)
	fmt.Fprintf(out, "  NL accuracy: %.2f%% (%d/%d)\n", 100*rep.NLAccuracy(), rep.NLCorrect, rep.NLCount)
	fmt.Fprintf(out, "  HL accuracy: %.2f%% (%d/%d)\n", 100*rep.HLAccuracy(), rep.HLCorrect, rep.HLCount)
	fmt.Fprintf(out, "  predictor enabled: %v\n", pr.Enabled())
	return nil
}
