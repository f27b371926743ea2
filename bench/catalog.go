package main

// metricDef names one metric and its unit. BENCHMARK.json at the repo
// root is the contract (it also carries direction and regression
// bounds); TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// workloadDef names one workload and the one-line reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"serve_http", "real faqd over loopback HTTP, warm plan cache, n=512: per-request overhead (JSON, query build, canonicalize, bind, net/http) dominates and kernels do little"},
	{"plan_churn", "in-process Engine.Solve over 256 Zipf-popular shapes with a 64-plan cache: misses, evictions and plan.Compile dominate; p50 is a hit, p99 a compile"},
	{"kernel_large", "in-process Engine.Solve at n=28672 over BCQ, count and marginal queries: relation kernels and exec scheduling do the work; bypass for serving-path changes"},
	{"view_churn", "three resident incremental views under a 90/10 update/read mix: the delta layer dominates and uses relation differently from the join path; state grows"},
	{"cluster_tcp", "two loopback TCP shard workers, 2 clients: split, encode, wire, worker compute, decode and merge dominate; the only workload that moves cluster bytes"},
}

// endToEnd is what a user of the system sees, measured with tracing off
// and reported for every workload. The issue's fail_ratio and
// wire_bytes_per_op are per-layer metrics here: the benchmark contract
// forbids end-to-end metrics that can be 0, and both are 0 on a healthy
// run of most workloads. Failures still gate every run through the
// correct/attempted/failed fields of the result line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer comes from the separate traced run. A metric whose layer the
// workload does not exercise is reported as 0.
var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"wire_bytes_per_op", "B"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"share.faqd", "ratio"},
	{"share.faqs", "ratio"},
	{"share.plan", "ratio"},
	{"share.kernels", "ratio"},
	{"share.delta", "ratio"},
	{"share.cluster", "ratio"},
	{"faqd.json_decode_ms_per_op", "ms"},
	{"faqd.json_encode_ms_per_op", "ms"},
	{"faqd.request_bytes_per_op", "B"},
	{"faqd.response_bytes_per_op", "B"},
	{"faqd.http_residual_ms_per_op", "ms"},
	{"faqs.build_query_ms_per_op", "ms"},
	{"faqs.overhead_ms_per_op", "ms"},
	{"faqs.alloc_kb_per_op", "kB"},
	{"plan.canonicalize_ms_per_op", "ms"},
	{"plan.cache_get_us_per_hit", "us"},
	{"plan.compile_ms_per_miss", "ms"},
	{"plan.bind_ms_per_op", "ms"},
	{"plan.cache_hit_ratio", "ratio"},
	{"plan.cache_evictions", "count"},
	{"plan.compiles", "count"},
	{"faq.solve_ghd_ms_per_op", "ms"},
	{"faq.node_cost_max_share", "ratio"},
	{"exec.speedup_w2", "ratio"},
	{"exec.makespan_ratio", "ratio"},
	{"relation.build_ns_per_row", "ns"},
	{"relation.join_merge_ns_per_row", "ns"},
	{"relation.join_hash_ns_per_row", "ns"},
	{"relation.semijoin_ns_per_row", "ns"},
	{"relation.eliminate_ns_per_row", "ns"},
	{"relation.project_ns_per_row", "ns"},
	{"delta.materialize_ms", "ms"},
	{"delta.update_ring_us_per_op", "us"},
	{"delta.update_support_us_per_op", "us"},
	{"delta.update_ledger_us_per_op", "us"},
	{"delta.answer_us_per_op", "us"},
	{"delta.recompute_ratio", "ratio"},
	{"delta.resolve_ratio", "ratio"},
	{"delta.rss_growth_mb", "MB"},
	{"shard.split_ms_per_op", "ms"},
	{"shard.encode_ms_per_op", "ms"},
	{"shard.decode_ms_per_op", "ms"},
	{"rpc.roundtrip_us", "us"},
	{"rpc.frames_per_op", "count"},
	{"cluster.solve_ms_per_op", "ms"},
	{"cluster.sim_solve_ms_per_op", "ms"},
	{"cluster.wire_ms_per_op", "ms"},
	{"cluster.load_bytes_per_op", "B"},
	{"cluster.solve_payload_bytes_per_op", "B"},
	{"cluster.payload_bound_bytes_per_op", "B"},
	{"cluster.bound_slack", "ratio"},
	{"cluster.phases_per_op", "count"},
	{"cluster.local_ratio", "ratio"},
	{"cluster.serial_ratio", "ratio"},
	{"protocol.rounds_per_op", "count"},
	{"protocol.bits_per_op", "bit"},
}

// unitOf maps every catalogued metric to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// exactCounts repeat exactly between two runs of the same code and
// seed: the traced run executes a fixed op sequence with one client.
// The A/A mode fails if any of them differs at all.
var exactCounts = []string{
	"plan.cache_hit_ratio", "plan.cache_evictions", "plan.compiles",
	"faqd.request_bytes_per_op",
	"rpc.frames_per_op",
	"cluster.load_bytes_per_op", "cluster.solve_payload_bytes_per_op",
	"cluster.payload_bound_bytes_per_op", "cluster.bound_slack", "cluster.phases_per_op",
	"protocol.rounds_per_op", "protocol.bits_per_op",
	"delta.recompute_ratio",
}

// sizes is one input-size preset. full is what BENCHMARK.json measures;
// smoke is the tiny preset `go test ./bench/` runs so CI covers the
// harness.
type sizes struct {
	brute     bool // references from faq.BruteForce instead of faq.Solve
	setups    int  // set-up repetitions; setup_s is their median
	tracedOps int  // ops in the traced run (≤ 300)

	httpPool, httpN int

	churnShapes, churnSeq, churnN, churnDom, churnCache, churnWarm int

	kernelN, kernelTriN, kernelDatasets, kernelTracedOps int

	viewN, viewLedgerN, viewOps, viewWarm, viewCheckEvery int

	clusterN, clusterDom, clusterDatasets int
}

var fullSizes = sizes{
	setups: 3, tracedOps: 288,
	httpPool: 256, httpN: 512,
	churnShapes: 256, churnSeq: 2000, churnN: 256, churnDom: 256, churnCache: 64, churnWarm: 256,
	kernelN: 28672, kernelTriN: 7168, kernelDatasets: 2, kernelTracedOps: 96,
	viewN: 100000, viewLedgerN: 10000, viewOps: 40000, viewWarm: 200, viewCheckEvery: 1000,
	clusterN: 4096, clusterDom: 64, clusterDatasets: 8,
}

var smokeSizes = sizes{
	brute: true, setups: 1, tracedOps: 24,
	httpPool: 8, httpN: 16,
	churnShapes: 24, churnSeq: 60, churnN: 16, churnDom: 8, churnCache: 6, churnWarm: 12,
	kernelN: 32, kernelTriN: 16, kernelDatasets: 1, kernelTracedOps: 12,
	viewN: 32, viewLedgerN: 24, viewOps: 400, viewWarm: 8, viewCheckEvery: 50,
	clusterN: 32, clusterDom: 8, clusterDatasets: 1,
}
