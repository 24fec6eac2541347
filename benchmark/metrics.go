package main

// metricDef names one metric. The two tables below are the single
// source of the benchmark's metric set; BENCHMARK.json repeats them and
// bench_test.go fails if the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the stack sees. Every workload reports all
// of them, always measured with the span recorder off. The bounds are
// sized from the spreads in benchmark/README.md.
var endToEnd = []metricDef{
	{"req_per_s", "1/s", higher, 0.25},
	{"cpu_ns_per_req", "ns", lower, 0.25},
	{"lat_p50_us", "us", lower, 0.25},
	{"hl_accuracy", "ratio", higher, 0.05},
	{"nl_accuracy", "ratio", higher, 0.02},
	{"virt_p999_us", "us", lower, 0.05},
	{"heap_mb", "MB", lower, 0.05},
	{"setup_s", "s", lower, 0.25},
}

// perLayer comes from the traced run. Names lead with the module the
// number belongs to. None of them gates anything.
var perLayer = []metricDef{
	// set-up layers
	{"trace.generate_ns_per_req", "ns", lower, 0},
	{"ssd.precondition_ms", "ms", lower, 0},
	{"extract.diagnose_ms_per_device", "ms", lower, 0},
	{"extract.fastdiag_ms_per_device", "ms", lower, 0},
	// ssd
	{"ssd.submit_ns", "ns", lower, 0},
	{"ssd.read_ns", "ns", lower, 0},
	{"ssd.write_ns", "ns", lower, 0},
	// core
	{"core.predict_ns", "ns", lower, 0},
	{"core.observe_ns", "ns", lower, 0},
	{"core.roundtrip_ns", "ns", lower, 0},
	// fleet
	{"fleet.submit_ns", "ns", lower, 0},
	{"fleet.batch64_ns_per_req", "ns", lower, 0},
	{"fleet.batch16_ns_per_req", "ns", lower, 0},
	{"fleet.ingress_self_ns", "ns", lower, 0},
	{"fleet.batch_self_ns_per_req", "ns", lower, 0},
	{"fleet.ring_wait_p50_us", "us", lower, 0},
	{"fleet.ring_wait_p99_us", "us", lower, 0},
	{"fleet.queue_depth_max", "count", lower, 0},
	{"fleet.steering_all_ns", "ns", lower, 0},
	{"fleet.metrics_ns", "ns", lower, 0},
	{"fleet.retries", "count", lower, 0},
	{"fleet.errors", "count", lower, 0},
	{"fleet.rejected", "count", lower, 0},
	// cluster
	{"cluster.direct16_ns_per_req", "ns", lower, 0},
	{"cluster.coord_self_ns_per_req", "ns", lower, 0},
	{"cluster.direct_bytes_per_req", "B", lower, 0},
	{"cluster.loopback16_ns_per_req", "ns", lower, 0},
	{"cluster.nodeapi_self_ns_per_req", "ns", lower, 0},
	{"cluster.http16_ns_per_req", "ns", lower, 0},
	{"cluster.http_self_ns_per_req", "ns", lower, 0},
	{"cluster.http_allocs_per_req", "count", lower, 0},
	{"cluster.rpc_p50_us", "us", lower, 0},
	{"cluster.rpc_retries", "count", lower, 0},
	{"cluster.rpc_timeouts", "count", lower, 0},
	// ecvol
	{"ecvol.read_direct_ns", "ns", lower, 0},
	{"ecvol.read_reconstruct_ns", "ns", lower, 0},
	{"ecvol.write_ns", "ns", lower, 0},
	{"ecvol.read_self_ns", "ns", lower, 0},
	{"ecvol.direct_reads", "count", higher, 0},
	{"ecvol.steered_reads", "count", higher, 0},
	{"ecvol.reconstruct_reads", "count", lower, 0},
	{"ecvol.degraded_writes", "count", lower, 0},
	{"ecvol.parity_flushes", "count", lower, 0},
	{"ecvol.steered_frac", "ratio", higher, 0},
	// obs
	{"obs.hist_observe_ns", "ns", lower, 0},
	// the client's view of the traced workload: diagnostics, and the
	// three end-to-end candidates that read 0 on most workloads and so
	// cannot carry a relative bound (see README, "Demoted").
	{"client.lat_p99_us", "us", lower, 0},
	{"client.lat_p999_us", "us", lower, 0},
	{"client.late_p99_us", "us", lower, 0},
	{"client.late_frac", "ratio", lower, 0},
	{"client.allocs_per_req", "count", lower, 0},
	{"client.bytes_per_req", "B", lower, 0},
	{"client.failed_frac", "ratio", lower, 0},
	// the recorder's own cost
	{"bench.trace_overhead_frac", "ratio", lower, 0},
}
