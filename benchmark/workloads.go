package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"ssdcheck"
)

// A workload is one set of inputs plus the public calls that consume
// them. The harness owns timing, pacing, resource accounting and spans;
// a workload only builds its devices, makes one call at a time and
// checks what came back.
type workload interface {
	spec() wlSpec

	// generate derives every input (device seeds, request streams, EC
	// chunk choices) from the seed. It runs once, before any set-up, and
	// is not part of setup_s.
	generate(seed uint64)

	// setup builds, preconditions, diagnoses and places the devices.
	// fast selects the reduced-strength diagnosis (smoke runs only).
	setup(fast bool) error

	// call performs call number i of client c. check verifies the
	// outputs of that call and records simulated latencies; it runs
	// right after call, outside the call's latency window.
	call(c int, i int64)
	check(c int, i int64, st *clientStats)

	// finish runs the end-of-run checks against the program's own
	// counters and returns the simulated statistics. sent is the number
	// of requests the clients issued since setup.
	finish(sent int64) (simStats, error)

	// layerCounters reads the layer counters of the workload's own
	// registries (zero where the workload has no fleet).
	layerCounters() layerCounters

	close()
}

// wlSpec is the static shape of a workload.
type wlSpec struct {
	name     string
	why      string
	callUnit string // what one client call is, for lat_p50_us
	clients  int
	callReqs int // requests completed by one call
	// rate is the nominal request rate of this box (requests per wall
	// second), used only to turn "-seconds" into a fixed request count.
	rate float64
	// interval > 0 makes the workload open loop: each client's call k is
	// due at start + k·interval whatever the completions do.
	interval time.Duration
}

// simStats are the numbers that live on the virtual clock or in exact
// counters: they must repeat bit for bit for one seed.
type simStats struct {
	hlAccuracy, nlAccuracy float64
	digest                 string
}

// layerCounters are per-layer counts read from a workload's registries.
type layerCounters struct {
	ringWaitP50us, ringWaitP99us float64
	queueDepth                   int64
	retries, errors, rejected    int64
}

// clientStats is what one client accumulates over one segment.
type clientStats struct {
	lat       hist // wall time of one call (from its due time in open loop)
	virt      hist // simulated service latency of each request
	late      hist // open loop: how late the generator started each call
	lateCalls int64
	attempted int64
	failed    int64
}

func (st *clientStats) fail(n int) { st.failed += int64(n) }

// mix is splitmix64: the one way every seed in the benchmark is derived
// from -seed, so two salts never share a stream.
func mix(seed, salt uint64) uint64 {
	x := seed + salt*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	streamLen          = 4096 // requests generated per device, then cycled
	preconditionFactor = 1.2
)

// deviceSpecs builds n fleet members cycling presets A–G with seeds
// derived from (seed, salt).
func deviceSpecs(n int, seed, salt uint64) []ssdcheck.FleetDeviceSpec {
	out := make([]ssdcheck.FleetDeviceSpec, n)
	for i := range out {
		p := ssdcheck.PresetNames[i%len(ssdcheck.PresetNames)]
		out[i] = ssdcheck.FleetDeviceSpec{
			ID:     fmt.Sprintf("ssd-%02d-%s", i, p),
			Preset: p,
			Seed:   mix(seed, salt+uint64(i)),
		}
	}
	return out
}

// deviceStreams generates one RWMixed request stream per device.
func deviceStreams(specs []ssdcheck.FleetDeviceSpec, seed, salt uint64) [][]ssdcheck.Request {
	out := make([][]ssdcheck.Request, len(specs))
	for i, s := range specs {
		cfg, err := ssdcheck.Preset(s.Preset, s.Seed)
		if err != nil {
			panic(err) // preset names come from ssdcheck.PresetNames
		}
		out[i] = ssdcheck.GenerateWorkload(ssdcheck.RWMixed, cfg.LogicalSectors, mix(seed, salt+uint64(i)), streamLen)
	}
	return out
}

func diagnosis(fast bool) ssdcheck.DiagnosisOpts {
	if fast {
		return ssdcheck.FastDiagnosis()
	}
	return ssdcheck.DiagnosisOpts{} // full strength, the production default
}

// digestDevices folds per-device counters, health and virtual clocks —
// and whatever extra state the workload adds — into the sim digest, in
// device-ID order.
func digestDevices(snaps []ssdcheck.FleetDeviceSnapshot, extra ...any) string {
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].ID < snaps[j].ID })
	h := fnv.New64a()
	for _, s := range snaps {
		fmt.Fprintf(h, "%s %+v %d %s %s|", s.ID, s.Counters, s.Clock, s.Health, s.ModelHealth)
	}
	fmt.Fprint(h, extra...)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkFleetResult is the per-request output check every fleet-backed
// workload applies: the result sits in the request's slot, names the
// request's device and carries no error.
func checkFleetResult(st *clientStats, want string, res *ssdcheck.FleetResult) {
	if res.Err != nil || res.DeviceID != want {
		st.fail(1)
		return
	}
	st.virt.add(int64(res.Latency))
}

// ---------------------------------------------------------------------
// replay: the paper's pipeline, nothing above core.

// latDevice records each request's simulated service time on its way
// through; it is how the benchmark sees per-request latency under
// EvaluateAccuracy, which returns only tallies.
type latDevice struct {
	dev *ssdcheck.SSD
	h   *hist
}

func (d *latDevice) Submit(req ssdcheck.Request, at ssdcheck.Time) ssdcheck.Time {
	done := d.dev.Submit(req, at)
	d.h.add(int64(done.Sub(at)))
	return done
}

func (d *latDevice) CapacitySectors() int64 { return d.dev.CapacitySectors() }

const replayChunk = 1024

type replayWL struct {
	seeds  []uint64
	chunks [][]ssdcheck.Request // per device: streamLen·2 requests, cut into chunks

	devs []*ssdcheck.SSD
	wrap []*latDevice
	prs  []*ssdcheck.Predictor
	now  []ssdcheck.Time
	acc  []ssdcheck.AccuracyReport
	virt hist
	last []ssdcheck.AccuracyReport
}

func (w *replayWL) spec() wlSpec {
	return wlSpec{
		name:     "replay",
		why:      "the paper's pipeline alone (Predict, Submit, Observe on seven diagnosed presets): core and the simulator do all the work, nothing above them runs",
		callUnit: "one 1024-request EvaluateAccuracy chunk on each of the seven devices",
		clients:  1, callReqs: replayChunk * len(ssdcheck.PresetNames), rate: 1.8e6,
	}
}

func (w *replayWL) generate(seed uint64) {
	n := len(ssdcheck.PresetNames)
	w.seeds = make([]uint64, n)
	w.chunks = make([][]ssdcheck.Request, n)
	for i, p := range ssdcheck.PresetNames {
		w.seeds[i] = mix(seed, 0x100+uint64(i))
		cfg, err := ssdcheck.Preset(p, w.seeds[i])
		if err != nil {
			panic(err)
		}
		w.chunks[i] = ssdcheck.GenerateWorkload(ssdcheck.RWMixed, cfg.LogicalSectors, mix(seed, 0x180+uint64(i)), 2*streamLen)
	}
}

func (w *replayWL) setup(fast bool) error {
	n := len(ssdcheck.PresetNames)
	w.devs = make([]*ssdcheck.SSD, n)
	w.wrap = make([]*latDevice, n)
	w.prs = make([]*ssdcheck.Predictor, n)
	w.now = make([]ssdcheck.Time, n)
	w.acc = make([]ssdcheck.AccuracyReport, n)
	w.last = make([]ssdcheck.AccuracyReport, n)
	w.virt.reset()
	for i, p := range ssdcheck.PresetNames {
		cfg, err := ssdcheck.Preset(p, w.seeds[i])
		if err != nil {
			return err
		}
		dev, err := ssdcheck.NewSSD(cfg)
		if err != nil {
			return err
		}
		now := ssdcheck.Precondition(dev, w.seeds[i], preconditionFactor, 0)
		opts := diagnosis(fast)
		opts.Seed = w.seeds[i] ^ 0xd1a6
		feats, now, err := ssdcheck.Diagnose(dev, now, opts)
		if err != nil {
			return fmt.Errorf("replay: diagnosing preset %s: %w", p, err)
		}
		w.devs[i], w.now[i] = dev, now
		w.wrap[i] = &latDevice{dev: dev, h: &w.virt}
		w.prs[i] = ssdcheck.NewPredictor(feats, ssdcheck.PredictorParams{})
	}
	return nil
}

// call is one round: the next chunk of every device, in preset order.
// A round, not a chunk, is the unit so that every call does the same
// mix of work; the presets differ several-fold in cost per request.
func (w *replayWL) call(_ int, i int64) {
	for d := range w.devs {
		k := i % int64(len(w.chunks[d])/replayChunk)
		w.last[d] = ssdcheck.EvaluateAccuracy(w.wrap[d], w.prs[d], w.chunks[d][k*replayChunk:(k+1)*replayChunk], w.now[d])
	}
}

func (w *replayWL) check(_ int, _ int64, st *clientStats) {
	for d, rep := range w.last {
		if rep.Errors != 0 || rep.NLCount+rep.HLCount != replayChunk || !rep.End.After(w.now[d]) {
			st.fail(replayChunk)
		}
		w.now[d] = rep.End
		a := &w.acc[d]
		a.NLCount += rep.NLCount
		a.NLCorrect += rep.NLCorrect
		a.HLCount += rep.HLCount
		a.HLCorrect += rep.HLCorrect
		a.PredictedHL += rep.PredictedHL
	}
	// The wrapped devices feed w.virt directly; hand this call's share
	// to the client and start the next one empty.
	st.virt.merge(&w.virt)
	w.virt.reset()
}

func (w *replayWL) finish(sent int64) (simStats, error) {
	var tot ssdcheck.AccuracyReport
	var completions uint64
	h := fnv.New64a()
	for d, a := range w.acc {
		tot.NLCount += a.NLCount
		tot.NLCorrect += a.NLCorrect
		tot.HLCount += a.HLCount
		tot.HLCorrect += a.HLCorrect
		fmt.Fprintf(h, "%d %+v %d %d|", d, a, w.now[d], w.devs[d].Completions())
		completions += w.devs[d].Completions()
	}
	var err error
	if got := int64(tot.NLCount + tot.HLCount); got != sent {
		err = fmt.Errorf("replay: %d requests scored, %d sent", got, sent)
	}
	return simStats{
		hlAccuracy: tot.HLAccuracy(), nlAccuracy: tot.NLAccuracy(),
		digest: fmt.Sprintf("%016x", h.Sum64()),
	}, err
}

func (w *replayWL) layerCounters() layerCounters { return layerCounters{} }
func (w *replayWL) close()                       { w.devs, w.wrap, w.prs = nil, nil, nil }

// ---------------------------------------------------------------------
// fleet-batch, fleet-single, fleet-open: one 16-device, 2-shard fleet
// shape, used three ways.

type fleetMode int

const (
	fleetBatch fleetMode = iota
	fleetSingle
	fleetOpen
)

const (
	fleetDevices = 16
	fleetShards  = 2
	fleetClients = 2
	fleetBatchN  = 64
	// openRate is the fixed offered load of fleet-open, requests per
	// second over both clients.
	openRate = 500_000
)

type fleetWL struct {
	mode  fleetMode
	specs []ssdcheck.FleetDeviceSpec
	cl    [fleetClients]fleetClient

	m *ssdcheck.Fleet
}

// fleetClient is one client's inputs and the outputs of its last call.
// Clients write their outputs on every call, so each gets its own cache
// lines: neighbours sharing one would bill the benchmark's own false
// sharing to fleet-single.
type fleetClient struct {
	// reqs is the client's input: prebuilt batches laid end to end.
	// Batch b holds requests 8b..8b+7 of each of the client's 8 devices,
	// interleaved by device, so per-device order is fixed by the seed.
	reqs []ssdcheck.FleetRequest
	out  []ssdcheck.FleetResult
	one  ssdcheck.FleetResult
	err  error
	_    [128]byte
}

func (w *fleetWL) spec() wlSpec {
	s := wlSpec{clients: fleetClients}
	switch w.mode {
	case fleetBatch:
		s.name, s.callReqs, s.rate = "fleet-batch", fleetBatchN, 1.8e6
		s.callUnit = "one 64-request SubmitBatchInto"
		s.why = "closed-loop 64-request batches: one ring hop per ~32 requests, so device, predictor and stats dominate and ingress is amortised"
	case fleetSingle:
		s.name, s.callReqs, s.rate = "fleet-single", 1, 4.8e5
		s.callUnit = "one Manager.Submit"
		s.why = "closed-loop single submits: ring claim, wake/park, WaitGroup and two clock reads are paid per request, so ingress dominates"
	case fleetOpen:
		s.name, s.callReqs, s.rate = "fleet-open", fleetBatchN, openRate
		s.callUnit = "one 64-request SubmitBatchInto, timed from its due instant"
		s.interval = time.Duration(float64(fleetBatchN*fleetClients) / openRate * float64(time.Second))
		s.why = "the fleet-batch calls offered open-loop at a fixed 500k req/s: shards idle, spin and park between arrivals, showing timeliness and idle CPU at partial load"
	}
	return s
}

func (w *fleetWL) salt() uint64 { return 0x200 + uint64(w.mode)*0x100 }

func (w *fleetWL) generate(seed uint64) {
	w.specs = deviceSpecs(fleetDevices, seed, w.salt())
	streams := deviceStreams(w.specs, seed, w.salt()+0x80)
	per := fleetDevices / fleetClients
	each := fleetBatchN / per // requests per device per batch
	for c := 0; c < fleetClients; c++ {
		devs := w.specs[c*per : (c+1)*per]
		reqs := make([]ssdcheck.FleetRequest, 0, per*streamLen)
		for b := 0; b < streamLen/each; b++ {
			for j := 0; j < fleetBatchN; j++ {
				d := j % per
				r := streams[c*per+d][b*each+j/per]
				reqs = append(reqs, ssdcheck.FleetRequest{DeviceID: devs[d].ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
			}
		}
		w.cl[c].reqs = reqs
		w.cl[c].out = make([]ssdcheck.FleetResult, fleetBatchN)
	}
}

func (w *fleetWL) setup(fast bool) error {
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices:            w.specs,
		Shards:             fleetShards,
		PreconditionFactor: preconditionFactor,
		Diagnosis:          diagnosis(fast),
	})
	w.m = m
	return err
}

func (w *fleetWL) batch(c int, i int64) []ssdcheck.FleetRequest {
	n := int64(len(w.cl[c].reqs) / fleetBatchN)
	b := i % n
	return w.cl[c].reqs[b*fleetBatchN : (b+1)*fleetBatchN]
}

func (w *fleetWL) call(c int, i int64) {
	if w.mode == fleetSingle {
		r := &w.cl[c].reqs[i%int64(len(w.cl[c].reqs))]
		w.cl[c].one, w.cl[c].err = w.m.Submit(r.DeviceID, r.Op, r.LBA, r.Sectors)
		return
	}
	w.cl[c].err = w.m.SubmitBatchInto(w.batch(c, i), w.cl[c].out)
}

func (w *fleetWL) check(c int, i int64, st *clientStats) {
	if w.mode == fleetSingle {
		if w.cl[c].err != nil {
			st.fail(1)
			return
		}
		checkFleetResult(st, w.cl[c].reqs[i%int64(len(w.cl[c].reqs))].DeviceID, &w.cl[c].one)
		return
	}
	if w.cl[c].err != nil {
		st.fail(fleetBatchN)
		return
	}
	reqs := w.batch(c, i)
	for j := range reqs {
		checkFleetResult(st, reqs[j].DeviceID, &w.cl[c].out[j])
	}
}

// fleetSim reads a fleet's exact counters and checks them against what
// the clients sent.
func fleetSim(name string, m *ssdcheck.Fleet, sent int64) (simStats, error) {
	fm := m.Metrics()
	var err error
	if fm.Counters.Requests != sent {
		err = fmt.Errorf("%s: fleet served %d requests, clients sent %d", name, fm.Counters.Requests, sent)
	}
	return simStats{
		hlAccuracy: fm.AccuracyCounters.HLAccuracy(),
		nlAccuracy: fm.AccuracyCounters.NLAccuracy(),
		digest:     digestDevices(m.Devices()),
	}, err
}

func (w *fleetWL) finish(sent int64) (simStats, error) { return fleetSim(w.spec().name, w.m, sent) }

// fleetLayerCounters reads the ingress histograms and resilience
// counters of one or more fleets out of their registries.
func fleetLayerCounters(fleets ...*ssdcheck.Fleet) layerCounters {
	var lc layerCounters
	var wait ssdcheck.LatencySnapshot
	for _, m := range fleets {
		fm := m.Metrics() // refreshes the queue-depth gauges
		lc.retries += fm.Counters.Retries
		lc.errors += fm.Counters.Errors
		lc.rejected += fm.Counters.Rejected
		for s := 0; s < m.Shards(); s++ {
			lbl := ssdcheck.MetricsLabel{Name: "shard", Value: fmt.Sprint(s)}
			wait.Merge(m.Registry().HistogramScaled("fleet_ingress_wait_us", "", 1e3, lbl).Snapshot())
			if d := m.Registry().Gauge("fleet_ingress_queue_depth", "", lbl).Value(); d > lc.queueDepth {
				lc.queueDepth = d
			}
		}
	}
	lc.ringWaitP50us = float64(wait.Quantile(0.50)) / 1e3
	lc.ringWaitP99us = float64(wait.Quantile(0.99)) / 1e3
	return lc
}

func (w *fleetWL) layerCounters() layerCounters { return fleetLayerCounters(w.m) }

func (w *fleetWL) close() {
	if w.m != nil {
		w.m.Close()
		w.m = nil
	}
}

// ---------------------------------------------------------------------
// cluster-http: coordinator fan-out over real loopback TCP to two node
// planes, stood up the way `ssdcheck-cluster -join` does it.

const (
	clusterNodes   = 2
	clusterDevices = 16
	clusterBatchN  = 16
	// clusterRingSeed fixes the placement ring. It is a constant, not a
	// function of -seed, so the same 16 device IDs land 8 + 8 on the two
	// nodes for every seed and the fan-out shape never varies.
	clusterRingSeed = 5
)

type clusterWL struct {
	specs []ssdcheck.FleetDeviceSpec
	reqs  []ssdcheck.FleetRequest // batches of 16, one request per device
	seed  uint64

	nodes     []*ssdcheck.ClusterNode
	servers   []*httptest.Server
	coord     *ssdcheck.ClusterCoordinator
	placement map[string]string
	res       []ssdcheck.ClusterResult
	err       error
}

func (w *clusterWL) spec() wlSpec {
	return wlSpec{
		name:     "cluster-http",
		why:      "Coordinator.Submit over HTTPTransport to two node planes on loopback TCP: JSON codec, net/http, token dedupe and fan-out dominate, fleet work is minor",
		callUnit: "one 16-request Coordinator.Submit (2 parallel RPCs)",
		clients:  1, callReqs: clusterBatchN, rate: 7.2e4,
	}
}

func (w *clusterWL) generate(seed uint64) {
	w.seed = seed
	w.specs = deviceSpecs(clusterDevices, seed, 0x600)
	streams := deviceStreams(w.specs, seed, 0x680)
	w.reqs = make([]ssdcheck.FleetRequest, 0, streamLen*clusterDevices)
	for b := 0; b < streamLen; b++ {
		for d, s := range w.specs {
			r := streams[d][b]
			w.reqs = append(w.reqs, ssdcheck.FleetRequest{DeviceID: s.ID, Op: r.Op, LBA: r.LBA, Sectors: r.Sectors})
		}
	}
}

// startNodePlanes starts n empty single-shard nodes, each behind its
// own httptest server mounted like ssdcheckd mounts the node API.
func startNodePlanes(n int) ([]*ssdcheck.ClusterNode, []*httptest.Server, error) {
	var nodes []*ssdcheck.ClusterNode
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		node, err := ssdcheck.NewClusterNode(fmt.Sprintf("node-%d", i), ssdcheck.FleetConfig{
			Shards:             1,
			PreconditionFactor: preconditionFactor,
		})
		if err != nil {
			return nodes, servers, err
		}
		mux := http.NewServeMux()
		mux.Handle("POST /v1/node/", http.StripPrefix("/v1/node",
			ssdcheck.ClusterNodeAPIHandler(ssdcheck.NewClusterNodeAPI(node, 0))))
		nodes = append(nodes, node)
		servers = append(servers, httptest.NewServer(mux))
	}
	return nodes, servers, nil
}

// httpCluster joins the node planes as remote members of a fresh
// coordinator over the HTTP transport, diagnoses the devices in a
// bootstrap fleet and adopts each onto its ring owner over attach RPCs.
func httpCluster(specs []ssdcheck.FleetDeviceSpec, servers []*httptest.Server, seed uint64, fast bool) (*ssdcheck.ClusterCoordinator, error) {
	reg := ssdcheck.NewMetricsRegistry()
	// The attach RPC rebuilds and preconditions the device on the node.
	// On a slow or race-instrumented host that outlasts the 200 ms default
	// deadline, and a retried attach then collides with its own first
	// attempt ("duplicate device ID"). Submits take ~0.2 ms, so the wider
	// deadline changes nothing that is measured.
	tr := ssdcheck.NewClusterHTTPTransport(ssdcheck.ClusterRPCPolicy{Deadline: 5 * time.Second}, seed, reg)
	coord, err := ssdcheck.NewClusterCoordinator(ssdcheck.ClusterPolicy{Seed: clusterRingSeed}, tr, reg)
	if err != nil {
		return nil, err
	}
	for i, srv := range servers {
		remote, err := ssdcheck.NewClusterRemoteNode(fmt.Sprintf("node-%d", i), srv.URL)
		if err != nil {
			return coord, err
		}
		if err := coord.Join(remote); err != nil {
			return coord, err
		}
	}
	boot, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices:            specs,
		Shards:             fleetShards,
		PreconditionFactor: preconditionFactor,
		Diagnosis:          diagnosis(fast),
	})
	if err != nil {
		return coord, err
	}
	defer boot.Close()
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return coord, coord.AdoptDevices(boot, ids)
}

func (w *clusterWL) setup(fast bool) error {
	var err error
	if w.nodes, w.servers, err = startNodePlanes(clusterNodes); err != nil {
		return err
	}
	if w.coord, err = httpCluster(w.specs, w.servers, w.seed, fast); err != nil {
		return err
	}
	w.placement = w.coord.Placement()
	perNode := map[string]int{}
	for _, node := range w.placement {
		perNode[node]++
	}
	for _, n := range w.nodes {
		if perNode[n.ID()] != clusterDevices/clusterNodes {
			return fmt.Errorf("cluster-http: placement %v is not %d devices per node; pick another clusterRingSeed", perNode, clusterDevices/clusterNodes)
		}
	}
	return nil
}

func (w *clusterWL) batch(i int64) []ssdcheck.FleetRequest {
	b := i % int64(len(w.reqs)/clusterBatchN)
	return w.reqs[b*clusterBatchN : (b+1)*clusterBatchN]
}

func (w *clusterWL) call(_ int, i int64) { w.res, w.err = w.coord.Submit(w.batch(i)) }

func (w *clusterWL) check(_ int, i int64, st *clientStats) {
	reqs := w.batch(i)
	if w.err != nil || len(w.res) != len(reqs) {
		st.fail(len(reqs))
		return
	}
	for j := range reqs {
		if w.res[j].Node != w.placement[reqs[j].DeviceID] {
			st.fail(1)
			continue
		}
		checkFleetResult(st, reqs[j].DeviceID, &w.res[j].Result)
	}
}

func (w *clusterWL) fleets() []*ssdcheck.Fleet {
	out := make([]*ssdcheck.Fleet, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.Manager()
	}
	return out
}

func (w *clusterWL) finish(sent int64) (simStats, error) {
	var tot ssdcheck.FleetMetrics // counters summed over the nodes
	var snaps []ssdcheck.FleetDeviceSnapshot
	var errs []error
	for i, m := range w.fleets() {
		fm := m.Metrics()
		tot.Counters = tot.Counters.Add(fm.Counters)
		tot.AccuracyCounters = tot.AccuracyCounters.Add(fm.AccuracyCounters)
		devs := m.Devices()
		snaps = append(snaps, devs...)
		// Every device a node holds must be one the coordinator placed
		// there.
		for _, d := range devs {
			if w.placement[d.ID] != w.nodes[i].ID() {
				errs = append(errs, fmt.Errorf("cluster-http: %s lives on %s, placement says %s", d.ID, w.nodes[i].ID(), w.placement[d.ID]))
			}
		}
	}
	if tot.Counters.Requests != sent {
		errs = append(errs, fmt.Errorf("cluster-http: nodes served %d requests, client sent %d", tot.Counters.Requests, sent))
	}
	if len(snaps) != clusterDevices {
		errs = append(errs, fmt.Errorf("cluster-http: %d devices on the nodes, want %d", len(snaps), clusterDevices))
	}
	return simStats{
		hlAccuracy: tot.AccuracyCounters.HLAccuracy(), nlAccuracy: tot.AccuracyCounters.NLAccuracy(),
		digest: digestDevices(snaps),
	}, errors.Join(errs...)
}

func (w *clusterWL) layerCounters() layerCounters { return fleetLayerCounters(w.fleets()...) }

// stopNodePlanes closes the servers (and their idle client connections)
// and the nodes behind them.
func stopNodePlanes(nodes []*ssdcheck.ClusterNode, servers []*httptest.Server) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for _, s := range servers {
		s.Close()
	}
	for _, n := range nodes {
		n.Close()
	}
}

func (w *clusterWL) close() {
	if w.coord != nil {
		w.coord.Close()
		w.coord = nil
	}
	stopNodePlanes(w.nodes, w.servers)
	w.nodes, w.servers = nil, nil
}

// ---------------------------------------------------------------------
// ecvol-mixed: a prediction consumer, reads beside writes, one member
// dead.

const (
	ecDevices  = 6
	ecData     = 3
	ecParity   = 2
	ecStripes  = 4096
	ecReadFrac = 0.7
	// ecFailAt is the armed request at which member ecFailDevice
	// fail-stops: early in the untimed warm-up ("loading"), so every
	// timed segment runs degraded.
	ecFailAt     = 200
	ecFailDevice = 4
	ecOps        = 1 << 16 // generated operations, then cycled
)

type ecOp struct {
	chunk int32
	read  bool
}

type ecvolWL struct {
	seed    uint64
	specs   []ssdcheck.FleetDeviceSpec
	ops     []ecOp
	version []uint32

	m     *ssdcheck.Fleet
	v     *ssdcheck.ECVolume
	op    ecOp
	rd    ssdcheck.ECReadResult
	wr    ssdcheck.ECWriteResult
	err   error
	reads int64
}

func (w *ecvolWL) spec() wlSpec {
	return wlSpec{
		name:     "ecvol-mixed",
		why:      "70/30 read/write chunks on a degraded 3+2 erasure-coded volume: SteeringAll per read, 1-5 single submits per op, RS decode and deferred parity; every read verified",
		callUnit: "one ECVolume.Read or Write",
		clients:  1, callReqs: 1, rate: 1.9e5,
	}
}

func (w *ecvolWL) generate(seed uint64) {
	w.seed = seed
	w.specs = deviceSpecs(ecDevices, seed, 0x700)
	w.specs[ecFailDevice].Faults = &ssdcheck.FaultConfig{Schedules: []ssdcheck.FaultSchedule{
		{Kind: ssdcheck.FaultFailStop, At: ecFailAt},
	}}
	w.ops = make([]ecOp, ecOps)
	x := mix(seed, 0x780)
	for i := range w.ops {
		x = mix(x, 1)
		w.ops[i] = ecOp{
			chunk: int32((x >> 32) % (ecStripes * ecData)),
			read:  float64(x&0xffffff)/float64(1<<24) < ecReadFrac,
		}
	}
}

func ecFleet(specs []ssdcheck.FleetDeviceSpec, seed uint64, fast bool) (*ssdcheck.Fleet, *ssdcheck.ECVolume, error) {
	m, err := ssdcheck.NewFleet(ssdcheck.FleetConfig{
		Devices:            specs,
		Shards:             fleetShards,
		PreconditionFactor: preconditionFactor,
		Diagnosis:          diagnosis(fast),
	})
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	v, err := ssdcheck.NewECVolume(m, ssdcheck.ECVolumeConfig{
		ID: "bench", Devices: ids, Data: ecData, Parity: ecParity,
		Stripes: ecStripes, Seed: seed, Predictive: true,
	})
	return m, v, err
}

func (w *ecvolWL) setup(fast bool) error {
	w.version = make([]uint32, ecStripes*ecData)
	w.reads = 0
	var err error
	w.m, w.v, err = ecFleet(w.specs, w.seed, fast)
	return err
}

func (w *ecvolWL) call(_ int, i int64) {
	w.op = w.ops[i%int64(len(w.ops))]
	if w.op.read {
		w.rd, w.err = w.v.Read(int64(w.op.chunk))
	} else {
		w.wr, w.err = w.v.Write(int64(w.op.chunk))
	}
}

func (w *ecvolWL) check(_ int, _ int64, st *clientStats) {
	if w.err != nil {
		st.fail(1)
		return
	}
	c := w.op.chunk
	if w.op.read {
		w.reads++
		if w.rd.Value != ssdcheck.ECFingerprint(w.seed, uint64(c), w.version[c]) {
			st.fail(1)
			return
		}
		st.virt.add(int64(w.rd.Latency))
		return
	}
	w.version[c]++
	if w.wr.Value != ssdcheck.ECFingerprint(w.seed, uint64(c), w.version[c]) {
		st.fail(1)
	}
}

func (w *ecvolWL) finish(sent int64) (simStats, error) {
	vs := w.v.Status()
	fm := w.m.Metrics()
	var errs []error
	if vs.Reads+vs.Writes != sent || vs.Reads != w.reads {
		errs = append(errs, fmt.Errorf("ecvol-mixed: volume accepted %d reads + %d writes, client sent %d ops (%d reads)", vs.Reads, vs.Writes, sent, w.reads))
	}
	if vs.ReadErrors+vs.WriteErrors != 0 {
		errs = append(errs, fmt.Errorf("ecvol-mixed: %d read and %d write errors", vs.ReadErrors, vs.WriteErrors))
	}
	if fm.UnhealthyDevices != 1 {
		errs = append(errs, fmt.Errorf("ecvol-mixed: %d members out of service, want the 1 fail-stopped", fm.UnhealthyDevices))
	}
	return simStats{
		hlAccuracy: fm.AccuracyCounters.HLAccuracy(),
		nlAccuracy: fm.AccuracyCounters.NLAccuracy(),
		digest:     digestDevices(w.m.Devices(), fmt.Sprintf("%+v", vs)),
	}, errors.Join(errs...)
}

func (w *ecvolWL) layerCounters() layerCounters { return fleetLayerCounters(w.m) }

func (w *ecvolWL) close() {
	if w.m != nil {
		w.m.Close()
		w.m, w.v = nil, nil
	}
}

// allWorkloads returns fresh instances in the order segments interleave.
func allWorkloads() []workload {
	return []workload{
		&replayWL{},
		&fleetWL{mode: fleetBatch},
		&fleetWL{mode: fleetSingle},
		&fleetWL{mode: fleetOpen},
		&clusterWL{},
		&ecvolWL{},
	}
}
