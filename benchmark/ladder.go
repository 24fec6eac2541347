package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ssdcheck"
)

// The ladder pushes one request stream — 16 devices, one RWMixed stream
// each, interleaved one request per device — through each layer's
// public entry point in turn. Only whole rungs can be timed from
// outside, so a layer's *self* time is its rung minus the rung below.
// A difference that comes out negative is noise and is reported as
// unresolved; it is never clamped to zero.

// rung is one timed entry point. ns is nanoseconds per request.
type rung struct {
	name string
	ns   float64
}

// selfRow is one line of the self-time column.
type selfRow struct {
	Layer      string  `json:"layer"`
	Rung       string  `json:"rung"`
	RungNs     float64 `json:"rung_ns_per_req"`
	SelfNs     float64 `json:"self_ns_per_req"`
	Unresolved bool    `json:"unresolved,omitempty"`
}

// chainReport is one ladder chain with its self-time check.
type chainReport struct {
	Name  string    `json:"name"`
	Rows  []selfRow `json:"rows"`
	SumNs float64   `json:"self_sum_ns"`
	TopNs float64   `json:"top_rung_ns"`
	SumOK bool      `json:"sum_matches_top"`
}

// selfTimes turns a bottom-to-top list of rungs into the self-time
// column and checks that the column adds back up to the top rung.
func selfTimes(name string, layers []string, rungs []rung) chainReport {
	cr := chainReport{Name: name}
	below := 0.0
	for i, r := range rungs {
		self := r.ns - below
		cr.Rows = append(cr.Rows, selfRow{Layer: layers[i], Rung: r.name, RungNs: r.ns, SelfNs: self, Unresolved: self < 0})
		cr.SumNs += self
		below = r.ns
	}
	cr.TopNs = below
	cr.SumOK = math.Abs(cr.SumNs-cr.TopNs) <= 1e-6*math.Max(1, cr.TopNs)
	return cr
}

// ladderReport is everything the ladder measured.
type ladderReport struct {
	values map[string]float64
	chains []chainReport
}

const ladderReps = 5 // each rung is the median of this many repetitions

// predictSink keeps the compiler from discarding a Predict whose answer
// nobody reads.
var predictSink ssdcheck.Prediction

// timeRung runs body(n) ladderReps times and returns the median
// nanoseconds per unit of n.
func timeRung(rec *recorder, parent int32, name string, n int, body func(n int)) float64 {
	var id int32
	if rec != nil {
		id = rec.begin(name, "ladder", 0, parent)
		defer rec.end(id)
	}
	per := make([]float64, ladderReps)
	for r := range per {
		t0 := time.Now()
		body(n)
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// allocsDuring reports mallocs and bytes allocated by the whole process
// while body runs.
func allocsDuring(body func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	body()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// runLadder measures every per-layer metric that does not belong to a
// particular workload. n scales every rung: it is the number of
// requests pushed through a ~100 ns rung; slower rungs push
// proportionally fewer.
func runLadder(p plan, rec *recorder) (*ladderReport, error) {
	out := &ladderReport{values: map[string]float64{}}
	v := out.values
	var root int32
	if rec != nil {
		root = rec.begin("ladder", "ladder", 0, 0)
		defer rec.end(root)
	}
	// A 10 s run gives each ~100 ns rung about 0.1 s per repetition.
	n := int(math.Max(256, 1e5*p.seconds))
	scaled := func(ns float64) int { return int(math.Max(64, float64(n)*100/ns)) }

	const nd = fleetDevices
	specs := deviceSpecs(nd, p.seed, 0x900)

	// --- set-up layers: trace, ssd precondition, extract -------------
	genN := scaled(60)
	t0 := time.Now()
	gen := ssdcheck.GenerateWorkload(ssdcheck.RWMixed, 1<<20, mix(p.seed, 0x9f0), genN)
	v["trace.generate_ns_per_req"] = float64(time.Since(t0)) / float64(len(gen))
	streams := deviceStreams(specs, p.seed, 0x980)

	devs := make([]*ssdcheck.SSD, nd)
	prs := make([]*ssdcheck.Predictor, nd)
	now := make([]ssdcheck.Time, nd)
	var preMs, diagMs, fastMs []float64
	for i, s := range specs {
		cfg, err := ssdcheck.Preset(s.Preset, s.Seed)
		if err != nil {
			return nil, err
		}
		dev, err := ssdcheck.NewSSD(cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		at := ssdcheck.Precondition(dev, s.Seed, preconditionFactor, 0)
		preMs = append(preMs, float64(time.Since(t0))/1e6)

		opts := diagnosis(p.fast)
		opts.Seed = s.Seed ^ 0xd1a6
		t0 = time.Now()
		feats, at, err := ssdcheck.Diagnose(dev, at, opts)
		if err != nil {
			return nil, fmt.Errorf("ladder: diagnosing %s: %w", s.ID, err)
		}
		diagMs = append(diagMs, float64(time.Since(t0))/1e6)
		specs[i].Features = feats
		devs[i], now[i] = dev, at
		prs[i] = ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})

		// Reduced-strength diagnosis on a second, identically built
		// device: one per preset is enough for a per-device figure.
		if i < len(ssdcheck.PresetNames) {
			dev2, err := ssdcheck.NewSSD(cfg)
			if err != nil {
				return nil, err
			}
			at2 := ssdcheck.Precondition(dev2, s.Seed, preconditionFactor, 0)
			fo := ssdcheck.FastDiagnosis()
			fo.Seed = opts.Seed
			t0 = time.Now()
			if _, _, err := ssdcheck.Diagnose(dev2, at2, fo); err != nil {
				return nil, fmt.Errorf("ladder: fast-diagnosing %s: %w", s.ID, err)
			}
			fastMs = append(fastMs, float64(time.Since(t0))/1e6)
		}
	}
	v["ssd.precondition_ms"] = median(preMs)
	v["extract.diagnose_ms_per_device"] = median(diagMs)
	v["extract.fastdiag_ms_per_device"] = median(fastMs)

	// flat is the one request stream every rung consumes: request k goes
	// to device k%nd and is that device's request k/nd (cycled).
	type flatReq struct {
		d   int
		req ssdcheck.Request
	}
	flatAt := func(k int) flatReq {
		d := k % nd
		return flatReq{d, streams[d][(k/nd)%streamLen]}
	}
	fleetReqs := make([]ssdcheck.FleetRequest, nd*streamLen)
	for k := range fleetReqs {
		f := flatAt(k)
		fleetReqs[k] = ssdcheck.FleetRequest{DeviceID: specs[f.d].ID, Op: f.req.Op, LBA: f.req.LBA, Sectors: f.req.Sectors}
	}
	// window returns the k-th size-aligned window of the cycled stream.
	window := func(k, size int) []ssdcheck.FleetRequest {
		off := (k * size) % len(fleetReqs)
		return fleetReqs[off : off+size]
	}

	// --- ssd and core: raw devices and predictors, one goroutine -----
	pos := 0 // position in the flat stream, carried across rungs
	raw := func(op func(f flatReq)) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				op(flatAt(pos))
				pos++
			}
		}
	}
	submit := func(f flatReq) { now[f.d] = devs[f.d].Submit(f.req, now[f.d]) }
	v["ssd.submit_ns"] = timeRung(rec, root, "ssd.submit", scaled(50), raw(submit))
	v["ssd.read_ns"] = timeRung(rec, root, "ssd.read", scaled(30), raw(func(f flatReq) {
		f.req.Op = ssdcheck.Read
		submit(f)
	}))
	v["ssd.write_ns"] = timeRung(rec, root, "ssd.write", scaled(80), raw(func(f flatReq) {
		f.req.Op = ssdcheck.Write
		submit(f)
	}))
	v["core.predict_ns"] = timeRung(rec, root, "core.predict", scaled(10), raw(func(f flatReq) {
		predictSink = prs[f.d].Predict(f.req, now[f.d])
	}))
	one := make([]ssdcheck.Request, 1)
	evaluate := func(f flatReq) {
		one[0] = f.req
		now[f.d] = ssdcheck.EvaluateAccuracy(devs[f.d], prs[f.d], one, now[f.d]).End
	}
	v["core.roundtrip_ns"] = timeRung(rec, root, "core.roundtrip", scaled(120), raw(evaluate))

	// Observe alone: replay recorded (request, submit, done) triples
	// into fresh predictors built from the same features.
	type triple struct {
		f        flatReq
		at, done ssdcheck.Time
	}
	obsN := scaled(60)
	triples := make([]triple, obsN)
	for i := range triples {
		f := flatAt(pos)
		pos++
		at := now[f.d]
		evaluate(f)
		triples[i] = triple{f, at, now[f.d]}
	}
	fresh := make([]*ssdcheck.Predictor, nd)
	v["core.observe_ns"] = timeRung(rec, root, "core.observe", obsN, func(n int) {
		for d := range fresh {
			fresh[d] = ssdcheck.NewPredictor(specs[d].Features, ssdcheck.PredictorParams{})
		}
		for i := 0; i < n; i++ {
			t := &triples[i]
			fresh[t.f.d].Observe(t.f.req, t.at, t.done)
		}
	})

	// --- obs -----------------------------------------------------------
	h := ssdcheck.NewMetricsRegistry().Histogram("bench_ladder", "")
	v["obs.hist_observe_ns"] = timeRung(rec, root, "obs.hist_observe", scaled(10), func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(50_000 + i&0xffff))
		}
	})

	// --- fleet: the same devices' twins behind a 2-shard manager ------
	// Features ride in the specs, so these fleets precondition but do
	// not diagnose again.
	fl, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{Devices: specs, Shards: fleetShards, PreconditionFactor: preconditionFactor})
	if err != nil {
		return nil, err
	}
	res := make([]ssdcheck.FleetResult, fleetBatchN)
	var failed int
	batchRung := func(m *ssdcheck.Fleet, size int) func(int) {
		k := 0
		return func(n int) {
			for i := 0; i < n; i += size {
				reqs := window(k, size)
				k++
				if err := m.SubmitBatchInto(reqs, res[:size]); err != nil {
					failed += size
				}
				for j := range reqs {
					if res[j].Err != nil {
						failed++
					}
				}
			}
		}
	}
	k1 := 0
	v["fleet.submit_ns"] = timeRung(rec, root, "fleet.submit", scaled(2500), func(n int) {
		for i := 0; i < n; i++ {
			r := &fleetReqs[k1%len(fleetReqs)]
			k1++
			if _, err := fl.Submit(r.DeviceID, r.Op, r.LBA, r.Sectors); err != nil {
				failed++
			}
		}
	})
	v["fleet.batch64_ns_per_req"] = timeRung(rec, root, "fleet.batch64", scaled(400), batchRung(fl, fleetBatchN))
	v["fleet.batch16_ns_per_req"] = timeRung(rec, root, "fleet.batch16", scaled(600), batchRung(fl, clusterBatchN))
	v["fleet.steering_all_ns"] = timeRung(rec, root, "fleet.steering_all", scaled(800), func(n int) {
		for i := 0; i < n; i++ {
			_ = fl.SteeringAll()
		}
	})
	v["fleet.metrics_ns"] = timeRung(rec, root, "fleet.metrics", scaled(40000), func(n int) {
		for i := 0; i < n; i++ {
			_ = fl.Metrics()
		}
	})
	fl.Close()

	// --- cluster: coordinator over direct, loopback and HTTP ----------
	coordRung := func(c *ssdcheck.ClusterCoordinator) func(int) {
		k := 0
		return func(n int) {
			for i := 0; i < n; i += clusterBatchN {
				reqs := window(k, clusterBatchN)
				k++
				out, err := c.Submit(reqs)
				if err != nil || len(out) != len(reqs) {
					failed += len(reqs)
					continue
				}
				for j := range out {
					if out[j].Err != nil {
						failed++
					}
				}
			}
		}
	}
	harness := func(rpc *ssdcheck.ClusterRPCPolicy) (*ssdcheck.ClusterHarness, error) {
		return ssdcheck.NewClusterHarness(ssdcheck.ClusterHarnessConfig{
			Nodes:   clusterNodes,
			Devices: specs,
			Node:    ssdcheck.FleetConfig{Shards: 1, PreconditionFactor: preconditionFactor},
			Policy:  ssdcheck.ClusterPolicy{Seed: clusterRingSeed},
			RPC:     rpc,
		})
	}
	direct, err := harness(nil)
	if err != nil {
		return nil, err
	}
	directN := scaled(900)
	_, directBytes := allocsDuring(func() {
		v["cluster.direct16_ns_per_req"] = timeRung(rec, root, "cluster.direct16", directN, coordRung(direct.Coordinator()))
	})
	v["cluster.direct_bytes_per_req"] = directBytes / float64(roundUp(directN, clusterBatchN)*ladderReps)
	direct.Close()

	loop, err := harness(&ssdcheck.ClusterRPCPolicy{})
	if err != nil {
		return nil, err
	}
	v["cluster.loopback16_ns_per_req"] = timeRung(rec, root, "cluster.loopback16", scaled(1000), coordRung(loop.Coordinator()))
	loop.Close()

	nodes, servers, err := startNodePlanes(clusterNodes)
	if err != nil {
		stopNodePlanes(nodes, servers)
		return nil, err
	}
	hc, err := httpCluster(specs, servers, p.seed, p.fast)
	if err != nil {
		if hc != nil {
			hc.Close()
		}
		stopNodePlanes(nodes, servers)
		return nil, err
	}
	httpN := scaled(8000)
	httpAllocs, _ := allocsDuring(func() {
		v["cluster.http16_ns_per_req"] = timeRung(rec, root, "cluster.http16", httpN, coordRung(hc))
	})
	v["cluster.http_allocs_per_req"] = httpAllocs / float64(roundUp(httpN, clusterBatchN)*ladderReps)
	var rpc ssdcheck.LatencySnapshot
	for _, nd := range nodes {
		member := ssdcheck.MetricsLabel{Name: "member", Value: nd.ID()}
		rpc.Merge(hc.Registry().Histogram("ssdcheck_cluster_rpc_latency_seconds", "", member).Snapshot())
		v["cluster.rpc_retries"] += float64(hc.Registry().Counter("ssdcheck_cluster_rpc_retries_total", "", member).Value())
		v["cluster.rpc_timeouts"] += float64(hc.Registry().Counter("ssdcheck_cluster_rpc_timeouts_total", "", member).Value())
	}
	v["cluster.rpc_p50_us"] = float64(rpc.Quantile(0.50)) / 1e3
	hc.Close()
	stopNodePlanes(nodes, servers)

	// --- ecvol: per-mode cost on a degraded predictive volume ----------
	ecSpecs := append([]ssdcheck.FleetDeviceSpec(nil), specs[:ecDevices]...)
	ecSpecs[ecFailDevice].Faults = &ssdcheck.FaultConfig{Schedules: []ssdcheck.FaultSchedule{
		{Kind: ssdcheck.FaultFailStop, At: ecFailAt},
	}}
	em, ev, err := ecFleet(ecSpecs, p.seed, p.fast)
	if err != nil {
		if em != nil {
			em.Close()
		}
		return nil, err
	}
	ew := &ecvolWL{}
	ew.generate(mix(p.seed, 0x9e0))
	const (
		ecDirect = iota
		ecRebuilt
		ecWrite
	)
	var sum [3]float64
	var cnt [3]float64
	ecN := scaled(6000)
	const ecLoadOps = 4096
	var ecID int32
	if rec != nil {
		ecID = rec.begin("ecvol.mixed", "ladder", 0, root)
	}
	// The first ops are loading: they take the volume past the member's
	// fail-stop and are not timed.
	for i := 0; i < ecLoadOps+ecN; i++ {
		op := ew.ops[i%len(ew.ops)]
		t0 := time.Now()
		kind := ecWrite
		if op.read {
			r, err := ev.Read(int64(op.chunk))
			if err != nil {
				failed++
				continue
			}
			kind = ecDirect
			if r.Mode != ssdcheck.ECReadDirect {
				kind = ecRebuilt
			}
		} else if _, err := ev.Write(int64(op.chunk)); err != nil {
			failed++
			continue
		}
		if i >= ecLoadOps {
			sum[kind] += float64(time.Since(t0))
			cnt[kind]++
		}
	}
	if rec != nil {
		rec.end(ecID)
	}
	mean := func(k int) float64 {
		if cnt[k] == 0 {
			return 0
		}
		return sum[k] / cnt[k]
	}
	v["ecvol.read_direct_ns"] = mean(ecDirect)
	v["ecvol.read_reconstruct_ns"] = mean(ecRebuilt)
	v["ecvol.write_ns"] = mean(ecWrite)
	vs := ev.Status()
	v["ecvol.direct_reads"] = float64(vs.DirectReads)
	v["ecvol.steered_reads"] = float64(vs.SteeredReads)
	v["ecvol.reconstruct_reads"] = float64(vs.ReconstructReads)
	v["ecvol.degraded_writes"] = float64(vs.DegradedWrites)
	for _, c := range vs.ParityFlushes {
		v["ecvol.parity_flushes"] += float64(c)
	}
	if vs.Reads > 0 {
		v["ecvol.steered_frac"] = float64(vs.SteeredReads) / float64(vs.Reads)
	}
	em.Close()

	if failed != 0 {
		return out, fmt.Errorf("ladder: %d requests failed", failed)
	}

	// --- self times ------------------------------------------------------
	r := func(name string) rung { return rung{name, v[name]} }
	net := selfTimes("batched path to the HTTP node plane",
		[]string{"ssd", "core", "fleet", "cluster coordinator", "cluster node API", "cluster HTTP"},
		[]rung{r("ssd.submit_ns"), r("core.roundtrip_ns"), r("fleet.batch16_ns_per_req"),
			r("cluster.direct16_ns_per_req"), r("cluster.loopback16_ns_per_req"), r("cluster.http16_ns_per_req")})
	single := selfTimes("single-submit path to the EC volume",
		[]string{"ssd", "core", "fleet ingress", "ecvol"},
		[]rung{r("ssd.submit_ns"), r("core.roundtrip_ns"), r("fleet.submit_ns"), r("ecvol.read_direct_ns")})
	out.chains = []chainReport{net, single}
	v["cluster.coord_self_ns_per_req"] = net.Rows[3].SelfNs
	v["cluster.nodeapi_self_ns_per_req"] = net.Rows[4].SelfNs
	v["cluster.http_self_ns_per_req"] = net.Rows[5].SelfNs
	v["fleet.ingress_self_ns"] = single.Rows[2].SelfNs
	v["ecvol.read_self_ns"] = single.Rows[3].SelfNs
	v["fleet.batch_self_ns_per_req"] = v["fleet.batch64_ns_per_req"] - v["core.roundtrip_ns"]
	for _, c := range out.chains {
		if !c.SumOK {
			return out, fmt.Errorf("ladder: self times of %q sum to %.1f ns, top rung is %.1f ns", c.Name, c.SumNs, c.TopNs)
		}
	}
	return out, nil
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }
