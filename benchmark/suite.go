package main

import (
	"fmt"
	"slices"
	"time"
)

// pass selects what a suite run measures.
type pass int

const (
	passEndToEnd pass = 1 << iota // timed segments, recorder off
	passTraced                    // traced workload pass plus the ladder
	passBoth     = passEndToEnd | passTraced
)

// runSuite sets the named workloads up, runs the requested passes over
// them and returns the report. rec collects the spans of the traced
// pass; it may be nil when which has no traced pass. An error means the
// suite could not run to the end; failed checks are in the report.
func runSuite(p plan, names []string, which pass, rec *recorder) (*report, error) {
	began := time.Now()
	rp := &report{Host: readHostFacts(p.seed), Seconds: p.seconds, Segments: p.segments}

	var rs []*running
	closeAll := func() {
		for _, r := range rs {
			r.w.close()
		}
	}
	for _, w := range allWorkloads() {
		if !slices.Contains(names, w.spec().name) {
			continue
		}
		r, err := start(w, p)
		if err != nil {
			closeAll()
			return nil, err
		}
		rs = append(rs, r)
	}
	if len(rs) != len(names) {
		closeAll()
		return nil, fmt.Errorf("unknown workload in %v", names)
	}

	if which&passEndToEnd != 0 {
		measure(rs, p)
	} else {
		for _, r := range rs {
			runSegment(r, -1, nil, 0) // warm-up only
		}
	}
	layers := make([]map[string]float64, len(rs))
	if which&passTraced != 0 {
		for i, r := range rs {
			layers[i] = tracedPass(r, rec)
			r.finish() // the counters must still add up after the extra segments
		}
	}
	// Workloads let go of their heap one at a time, so each reading is
	// that workload's alone even when all six were alive together.
	for _, r := range rs {
		release(r)
	}

	for i, r := range rs {
		wr := workloadReport{
			Name: r.spec.name, Why: r.spec.why, CallUnit: r.spec.callUnit,
			Clients: r.spec.clients, Calls: r.calls,
			Attempted: r.attempted, Failed: r.failed, LateFailed: r.lateFailed, SimDigest: r.sim.digest,
		}
		for _, err := range r.errs {
			wr.Errors = append(wr.Errors, err.Error())
		}
		if which&passEndToEnd != 0 {
			wr.EndToEnd = endToEndMetrics(r)
		}
		if layers[i] != nil {
			wr.PerLayer = layerMetrics(layers[i])
		}
		rp.Workloads = append(rp.Workloads, wr)
	}

	if which&passTraced != 0 {
		lad, err := runLadder(p, rec)
		if lad != nil {
			rp.Ladder = layerMetrics(lad.values)
			rp.Chains = lad.chains
		}
		if err != nil {
			rp.Errors = append(rp.Errors, err.Error())
		}
		rp.SpansKept, rp.SpansLost = rec.counts()
	}
	rp.ElapsedSec = time.Since(began).Seconds()
	return rp, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads() {
		out = append(out, w.spec().name)
	}
	return out
}
