package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints one row per workload × end-to-end metric of two
// result files: both medians, both IQRs, the delta as a share of a's
// median (signed so that + is worse), the fixed bound and a verdict.
//
//	unresolved  the noise is wider than the bound, so neither a change
//	            nor its absence can be read off the medians — unless
//	            every segment moved the same way
//	within      the medians differ by no more than the bound
//	better      b is better than a by more than the bound
//	worse       b is worse than a by more than the bound
//
// Segment k does the same requests in both files (the counts are fixed
// and the seed is the same), so the noise is judged on the paired
// per-segment deltas: pairing removes the drift the program shows
// inside a run (its cost per request grows as the models gather
// history), which would otherwise pass for spread.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit=%s seed=%d %s nproc=%d\n", pathA, a.Host.GitCommit, a.Host.Seed, a.Host.CPUModel, a.Host.NProc)
	fmt.Fprintf(w, "b: %s  commit=%s seed=%d %s nproc=%d\n", pathB, b.Host.GitCommit, b.Host.Seed, b.Host.CPUModel, b.Host.NProc)
	if a.Host.Seed != b.Host.Seed || a.Seconds != b.Seconds || a.Segments != b.Segments {
		fmt.Fprintln(w, "warning: seed, seconds or segments differ; simulated metrics are not comparable")
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %11s %14s %11s %9s %7s  %s\n",
		"workload", "metric", "a median", "a iqr", "b median", "b iqr", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from b\n", wa.Name)
			continue
		}
		for _, ma := range wa.EndToEnd {
			mb := wb.metric(ma.Name)
			if mb == nil {
				fmt.Fprintf(w, "%-14s %-16s missing from b\n", wa.Name, ma.Name)
				continue
			}
			delta, verdict := judge(ma, *mb)
			fmt.Fprintf(w, "%-14s %-16s %14s %11s %14s %11s %+8.2f%% %6.1f%%  %s\n",
				wa.Name, ma.Name, fmtVal(ma.Value), fmtVal(ma.IQR), fmtVal(mb.Value), fmtVal(mb.IQR),
				100*delta, 100*ma.Bound, verdict)
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(w, "%-14s sim_digest differs: %s vs %s\n", wa.Name, wa.SimDigest, wb.SimDigest)
		}
	}
	return nil
}

// judge returns b's change against a as a share of a's median, signed so
// that positive is worse, and the verdict.
func judge(a, b metricValue) (delta float64, verdict string) {
	worse := func(av, bv float64) float64 {
		if av == 0 {
			return 0
		}
		d := (bv - av) / math.Abs(av)
		if a.Better == higher {
			d = -d
		}
		return d
	}
	delta = worse(a.Value, b.Value)

	// Noise: the spread of the paired deltas when the segments pair up,
	// else the wider of the two sides' own spreads.
	noise, oneWay := 0.0, false
	if n := len(a.Segments); n > 1 && n == len(b.Segments) {
		paired := make([]float64, n)
		pos, neg := 0, 0
		for k := range paired {
			paired[k] = worse(a.Segments[k], b.Segments[k])
			if paired[k] > 0 {
				pos++
			} else if paired[k] < 0 {
				neg++
			}
		}
		noise, oneWay = iqr(paired), pos == n || neg == n
	} else {
		for _, m := range []metricValue{a, b} {
			if m.Value != 0 {
				noise = math.Max(noise, m.IQR/math.Abs(m.Value))
			}
		}
	}
	switch {
	case noise > a.Bound && !oneWay:
		return delta, "unresolved"
	case math.Abs(delta) <= a.Bound:
		return delta, "within"
	case delta > 0:
		return delta, "worse"
	default:
		return delta, "better"
	}
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}
