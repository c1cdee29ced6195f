package main

// The metric catalogue: every name the harness prints, with its unit,
// its direction, and — for the per-layer ones — the end-to-end metric
// and workload it is expected to move (bench/README.md explains each).
// BENCHMARK.json is generated from these two lists (-describe), and the
// contract's result line is filled from them, so the three cannot
// drift apart.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	moves  string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a client or operator of the system sees.
//
// The bounds are what calibration on this host allows, not what one
// would like. With zero steal reported, ten runs of one workload on
// different seeds spread (interquartile range over median) 9-22 % on
// throughput: the work a vCPU gets done per second drifts by ±15 % over
// minutes with its neighbours, and nothing measurable inside the guest
// (steal, a spin loop, a memory walk, a loopback echo) tracks it. A
// bound has to be well above the spread to tell a regression from that
// drift, so the metrics carry the largest bound a benchmark may state.
// Two of ISSUE 12's end-to-end metrics did not repeat even that well
// and were demoted to per-layer, as it prescribes, not widened:
// burst_p50_us (17 % on search-direct; now client.burst_p50_us — in a
// closed loop of fixed depth the mean burst time is the reciprocal of
// throughput, so latency is still covered) and cpu_us_per_op (7-26 %;
// it is throughput's mirror image here, because the server sits at
// 0.9 CPUs whatever the host does). failed_share is reported through
// the result line's attempted/failed/correct: its bound is 0, absolute,
// which a relative bound cannot express.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

const (
	readLayers = "throughput_ops_s and cpu_us_per_op on msearch-direct and typed-search; inside the bound on search-direct"
	walOnly    = "throughput_ops_s and cpu_us_per_op on mixed-wal only (setup_s there through recovery); read-only workloads must not move"
	routedOnly = "throughput_ops_s, cpu_us_per_op and client.burst_p50_us on search-routed only"
)

var perLayer = []metricDef{
	// The ladder: one table, one key stream, priced at every rung.
	{Name: "hash.index_ns", Unit: "ns", Better: lower, moves: readLayers},
	{Name: "match.binary_row_ns", Unit: "ns", Better: lower, moves: readLayers},
	{Name: "match.ternary_row_ns", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on typed-search"},
	{Name: "caram.lookup_ns", Unit: "ns", Better: lower, moves: readLayers},
	{Name: "caram.lookup_best_ns", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on typed-search"},
	{Name: "caram.insert_ns", Unit: "ns", Better: lower, moves: walOnly},
	{Name: "caram.delete_ns", Unit: "ns", Better: lower, moves: walOnly},
	{Name: "caram.rows_per_lookup", Unit: "count", Better: lower, moves: readLayers + "; an exact count that repeats"},
	{Name: "caram.expected_rows_per_lookup", Unit: "count", Better: lower, moves: "the §3.4 model printed beside caram.rows_per_lookup"},
	{Name: "subsystem.search_ns", Unit: "ns", Better: lower, moves: readLayers},
	{Name: "subsystem.insert_ns", Unit: "ns", Better: lower, moves: walOnly},
	{Name: "subsystem.delete_ns", Unit: "ns", Better: lower, moves: walOnly},
	{Name: "subsystem.msearch64_ns_per_key", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on msearch-direct"},
	{Name: "subsystem.msearch64_allocs", Unit: "count", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on msearch-direct"},
	{Name: "server.exec_search_ns", Unit: "ns", Better: lower, moves: readLayers},
	{Name: "server.exec_search_bare_ns", Unit: "ns", Better: lower, moves: readLayers},
	{Name: "server.exec_insert_ns", Unit: "ns", Better: lower, moves: walOnly},
	{Name: "server.exec_msearch64_ns_per_key", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on msearch-direct"},
	{Name: "server.exec_lpm_ns", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on typed-search"},
	{Name: "server.exec_pktclass_ns", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on typed-search"},
	{Name: "server.exec_tsearch_ns", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on typed-search"},
	{Name: "server.exec_search_allocs", Unit: "count", Better: lower, moves: readLayers},
	{Name: "server.handle_depth16_ns_per_op", Unit: "ns", Better: lower, moves: "throughput_ops_s and cpu_us_per_op on search-direct"},
	{Name: "loopback.self_us_per_op", Unit: "us", Better: lower, moves: "throughput_ops_s on search-direct: per-op wall time minus the handle rung"},
	{Name: "metrics.search_premium_ns", Unit: "ns", Better: lower, moves: readLayers},
	{Name: "trace.sampled_search_premium_ns", Unit: "ns", Better: lower, moves: "nothing at default flags (sampling is off); the cost of turning it on"},

	{Name: "wal.append_commit_ns", Unit: "ns", Better: lower, moves: walOnly},
	{Name: "wal.insert_premium_ns", Unit: "ns", Better: lower, moves: walOnly},
	{Name: "wal.snapshot_s", Unit: "s", Better: lower, moves: "client.burst_p99_us on mixed-wal (snapshot stalls)"},
	{Name: "wal.snapshot_mb", Unit: "MB", Better: lower, moves: "wal.snapshot_s"},
	{Name: "wal.recover_s", Unit: "s", Better: lower, moves: "setup_s on mixed-wal"},
	{Name: "wal.recover_us_per_record", Unit: "us", Better: lower, moves: "setup_s on mixed-wal"},
	{Name: "wal.recover_boot_s", Unit: "s", Better: lower, moves: "setup_s on mixed-wal: process start to serving over the full log"},
	{Name: "wal.recover_tail_s", Unit: "s", Better: lower, moves: "nothing end to end: restart after the run, newest snapshot plus log tail"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: lower, moves: walOnly},
	{Name: "wal.fsyncs_per_s", Unit: "1/s", Better: lower, moves: walOnly},
	{Name: "wal.fsync_ms_per_s", Unit: "ms/s", Better: lower, moves: walOnly},
	{Name: "wal.snapshots_completed", Unit: "count", Better: higher, moves: "shows the run spanned several snapshot cycles"},
	{Name: "subsystem.search_retries_per_mop", Unit: "count", Better: lower, moves: "throughput_ops_s on mixed-wal (seqlock retries beside a writer)"},
	{Name: "subsystem.lock_fallbacks_per_mop", Unit: "count", Better: lower, moves: "throughput_ops_s on mixed-wal"},

	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: lower, moves: routedOnly},
	{Name: "cluster.pool_rtt_us", Unit: "us", Better: lower, moves: routedOnly},
	{Name: "cluster.router_cpu_us_per_op", Unit: "us", Better: lower, moves: "cpu_us_per_op on search-routed"},
	{Name: "cluster.backend_cpu_us_per_op", Unit: "us", Better: lower, moves: "cpu_us_per_op on search-routed"},
	{Name: "cluster.router_premium_us_per_op", Unit: "us", Better: lower, moves: "throughput_ops_s on search-routed: routed minus direct per-op time"},
	{Name: "cluster.burst_size_mean", Unit: "count", Better: higher, moves: routedOnly},
	{Name: "cluster.backend_retries", Unit: "count", Better: lower, moves: "must be 0"},
	{Name: "cluster.breaker_trips", Unit: "count", Better: lower, moves: "must be 0"},

	{Name: "cpu_us_per_op", Unit: "us", Better: lower, moves: "the operator's cost per request: user+sys CPU of every server-side process per op; spread 7-26 % on identical runs, so not end to end"},
	{Name: "client.burst_p50_us", Unit: "us", Better: lower, moves: "median flush-to-last-verified-reply time of a burst; spread 17 % on identical runs, so not end to end"},
	{Name: "client.burst_p99_us", Unit: "us", Better: lower, moves: "diagnostic: 0.27-8.9 ms on identical runs under steal"},
	{Name: "client.burst_p999_us", Unit: "us", Better: lower, moves: "diagnostic"},
	{Name: "client.depth1_rtt_p50_us", Unit: "us", Better: lower, moves: "diagnostic until a bigger box: 15.6-20.9 us on identical runs"},
	{Name: "client.samples", Unit: "count", Better: higher, moves: "the burst count behind the client.* percentiles"},
	{Name: "client.gen_cpu_share", Unit: "cpu", Better: lower, moves: "proves the generator is not the bottleneck"},
	{Name: "client.trace_overhead_share", Unit: "share", Better: lower, moves: "1 - traced/untraced throughput"},
	{Name: "client.failed_share", Unit: "share", Better: lower, moves: "must be 0: wrong, errored, refused or missing replies over attempted"},

	{Name: "host.steal_share", Unit: "share", Better: lower, moves: "every timing; why a repetition was kept or dropped"},
	{Name: "host.settle_s", Unit: "s", Better: lower, moves: "nothing: time the run idled waiting for a steal storm to pass"},
	{Name: "host.quiet_reps", Unit: "count", Better: higher, moves: "how many kept repetitions met the quiet rule"},
	{Name: "host.noisy", Unit: "count", Better: lower, moves: "1 marks the workload unresolved in a comparison"},
	{Name: "host.rep_spread", Unit: "share", Better: lower, moves: "(max-min)/median throughput of the kept repetitions"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps names to measured values; fill turns it into the
// reported form for a list of definitions, 0 where the workload has no
// such layer (a direct workload has no router to scrape).
type metricSet map[string]float64

func (m metricSet) fill(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
