package main

// metric is one catalogued metric. BENCHMARK.json lists exactly these
// names, units and directions (TestCatalogMatchesBenchmarkJSON); Bound is
// set on end-to-end metrics only.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the served system sees; every
// workload reports every one of them on an untraced run. Bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression. Every time-based metric carries the
// widest bound the contract allows: on the shared reference host unchanged
// code moves 3–7% between runs in a calm period and 15–25% in a noisy one
// (README.md, "Noise floor"), and a bound inside that band would reject
// unchanged code. Finer claims are made with paired -repeat runs.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"search_p50_ms", "ms", lower, 0.24},
	{"search_p90_ms", "ms", lower, 0.24},
	{"ta_p50_ms", "ms", lower, 0.24},
	{"ta_p90_ms", "ms", lower, 0.24},
	{"insert_p50_ms", "ms", lower, 0.24},
	{"ops_per_s", "1/s", higher, 0.24},
	{"cpu_ms_per_op", "ms", lower, 0.24},
	{"heap_mb", "MB", lower, 0.05},
	{"snapshot_mb", "MB", lower, 0.02},
	{"p_at_10", "ratio", higher, 0.02},
}

// perLayer are the single-layer metrics of a traced run, named after the
// module they measure. They explain a move in an end-to-end metric and
// never gate. A layer a workload's deployment does not contain (cluster,
// shard, topk outside fleet-rw-4k) reads 0.
var perLayer = []metric{
	{"dataset.generate_ms", "ms", lower, 0},

	{"corr.train_thresholds_ms", "ms", lower, 0},
	{"corr.cosine_misses_per_op", "count", lower, 0},

	{"fig.build_us", "us", lower, 0},
	{"fig.enumerate_us", "us", lower, 0},
	{"fig.cliques_per_query", "count", lower, 0},

	{"mrf.compile_us", "us", lower, 0},
	{"mrf.score_ns_per_candidate", "ns", lower, 0},
	{"mrf.cors_misses_per_op", "count", lower, 0},
	{"mrf.smooth_misses_per_op", "count", lower, 0},
	{"mrf.smooth_entries", "count", lower, 0},

	{"index.build_ms", "ms", lower, 0},
	{"index.cliques", "count", lower, 0},
	{"index.postings", "count", lower, 0},
	{"index.resident_mb", "MB", lower, 0},
	{"index.save_ms", "ms", lower, 0},
	{"index.load_ms", "ms", lower, 0},
	{"index.lookup_ns", "ns", lower, 0},
	{"index.insert_us", "us", lower, 0},

	{"retrieval.prepare_ms", "ms", lower, 0},
	{"retrieval.search_ms", "ms", lower, 0},
	{"retrieval.ta_ms", "ms", lower, 0},
	{"retrieval.stage_prepare_ms.search", "ms", lower, 0},
	{"retrieval.stage_gather_ms.search", "ms", lower, 0},
	{"retrieval.stage_score_ms.search", "ms", lower, 0},
	{"retrieval.stage_merge_ms.search", "ms", lower, 0},
	{"retrieval.stage_prepare_ms.ta", "ms", lower, 0},
	{"retrieval.stage_gather_ms.ta", "ms", lower, 0},
	{"retrieval.stage_score_ms.ta", "ms", lower, 0},
	{"retrieval.stage_merge_ms.ta", "ms", lower, 0},
	{"retrieval.candidates_per_search", "count", lower, 0},
	{"retrieval.candidates_per_ta", "count", lower, 0},
	{"retrieval.prune_skip_ratio", "ratio", higher, 0},
	{"retrieval.prune_blocks_skipped_per_ta", "count", higher, 0},
	{"retrieval.insert_ms", "ms", lower, 0},

	{"topk.merge_us", "us", lower, 0},

	{"shard.search_ms", "ms", lower, 0},
	{"shard.fanout_ms", "ms", lower, 0},
	{"shard.straggler_ms", "ms", lower, 0},

	{"cluster.http_search_ms", "ms", lower, 0},
	{"cluster.local_search_ms", "ms", lower, 0},
	{"cluster.wire_tax_ms", "ms", lower, 0},
	{"cluster.fanout_ms", "ms", lower, 0},
	{"cluster.straggler_ms", "ms", lower, 0},
	{"cluster.insert_ms", "ms", lower, 0},
	{"cluster.hedges_fired", "count", lower, 0},
	{"cluster.node_errors", "count", lower, 0},

	{"api.encode_us", "us", lower, 0},
	{"api.decode_us", "us", lower, 0},
	{"api.resolve_query_us", "us", lower, 0},
	{"api.request_bytes", "B", lower, 0},
	{"api.response_bytes", "B", lower, 0},

	{"client.roundtrip_ms", "ms", lower, 0},
	{"client.self_ms", "ms", lower, 0},

	{"server.handler_ms", "ms", lower, 0},
	{"server.self_ms", "ms", lower, 0},
	{"server.coalesce_hit_ratio", "ratio", higher, 0},
	{"server.coalesce_shared", "count", higher, 0},
	{"server.coalesce_entries", "count", lower, 0},
	{"server.shed_requests", "count", lower, 0},
	{"server.admission_queued_max", "count", lower, 0},

	{"recommend.recommend_ms", "ms", lower, 0},

	{"runtime.alloc_kb_per_op", "kB", lower, 0},
	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_pause_ms", "ms", lower, 0},

	{"host.calib_ms", "ms", lower, 0},
	{"host.disturbed", "count", lower, 0},

	{"trace.overhead_pct", "%", lower, 0},
	{"trace.spans", "count", lower, 0},
}

// phaseKind says how a phase's op list is generated.
type phaseKind int

const (
	// distinctTA and distinctSearch query fresh corpus ids, one per op.
	distinctTA phaseKind = iota
	distinctSearch
	// hits replays the keys of the preceding latency phases, zipf(s=1.2)
	// ranked in the order they were first asked: every op is answered by
	// the coalescing cache.
	hits
	// mixed interleaves fresh reads (8 ta : 2 search) with inserts at op
	// indices 10 and 20 of every 22, all even, so client 0 applies every
	// insert in a fixed order.
	mixed
	// inserts re-posts held-out objects' exact features from client 0.
	inserts
)

// phaseSpec is one phase of a workload. Ops is the op count at
// -seconds 10 (mixed: the read count; the inserts ride along).
type phaseSpec struct {
	Name string
	Kind phaseKind
	Ops  int
	// Path names the engine path whose per-stage registry deltas this
	// phase isolates ("ta", "search" or "" when it mixes paths).
	Path string
	// Latency phases feed the latency percentiles (insert latency comes
	// from pure insert phases alone: beside reads it is bimodal, set by
	// whether a search held the statistics lock); Throughput phases feed
	// ops_per_s, cpu_ms_per_op and the per-op counts. A phase with
	// neither is warm-up.
	Latency, Throughput bool
	// HeapAfter marks the phase after which heap_mb is read: with the
	// caches at their fullest on a read-only workload, right after the
	// last write on a read-write one (what the caches hold between two
	// writes depends on the op order, so it is not a steady reading).
	HeapAfter bool
}

// workloadSpec is one workload: a deployment shape, a corpus size and a
// fixed phase sequence.
type workloadSpec struct {
	Name    string
	Why     string
	Objects int
	Fleet   bool
	Phases  []phaseSpec
}

// warmUp fills the scorer's correlation caches and the connection pool
// before anything is timed. Its two sub-phases also isolate the engine
// paths for the per-stage means on workloads whose timed phase mixes them.
var warmUp = []phaseSpec{
	{Name: "warm-ta", Kind: distinctTA, Ops: 134, Path: "ta"},
	{Name: "warm-search", Kind: distinctSearch, Ops: 16, Path: "search"},
}

func withWarmUp(timed ...phaseSpec) []phaseSpec {
	return append(append([]phaseSpec(nil), warmUp...), timed...)
}

var workloads = []workloadSpec{
	{
		Name:    "uniq-4k",
		Why:     "standalone, 4000 objects, every query distinct: the engine does ~all the work and the cache never hits, so an engine change shows and a serving-tier change must not",
		Objects: 4000,
		Phases: withWarmUp(
			phaseSpec{Name: "ta", Kind: distinctTA, Ops: 1200, Path: "ta", Latency: true, Throughput: true},
			phaseSpec{Name: "search", Kind: distinctSearch, Ops: 120, Path: "search", Latency: true, Throughput: true, HeapAfter: true},
			phaseSpec{Name: "insert", Kind: inserts, Ops: 30, Latency: true},
		),
	},
	{
		Name:    "uniq-8k",
		Why:     "the same at 8000 objects, the paper's Fig. 9 rung: a gain that scales with posting length shows larger here, a constant-factor one shows the same ratio as on uniq-4k",
		Objects: 8000,
		Phases: withWarmUp(
			phaseSpec{Name: "ta", Kind: distinctTA, Ops: 600, Path: "ta", Latency: true, Throughput: true},
			phaseSpec{Name: "search", Kind: distinctSearch, Ops: 100, Path: "search", Latency: true, Throughput: true, HeapAfter: true},
			phaseSpec{Name: "insert", Kind: inserts, Ops: 30, Latency: true},
		),
	},
	{
		Name:    "hot-4k",
		Why:     "standalone, 4000 objects, 700 keys filled once then 150000 zipf repeats, all cache hits: server, api and client do all the work, the bypass workload for every engine change",
		Objects: 4000,
		Phases: withWarmUp(
			phaseSpec{Name: "fill-ta", Kind: distinctTA, Ops: 600, Path: "ta", Latency: true},
			phaseSpec{Name: "fill-search", Kind: distinctSearch, Ops: 100, Path: "search", Latency: true},
			phaseSpec{Name: "hits", Kind: hits, Ops: 150000, Throughput: true, HeapAfter: true},
			phaseSpec{Name: "insert", Kind: inserts, Ops: 30, Latency: true},
		),
	},
	{
		Name:    "fleet-rw-4k",
		Why:     "router over 2 loopback shard nodes, 4000 objects, reads mixed with an insert per 10 reads: scatter/merge and the wire instead of one engine, and writes that drop every cache beside reads",
		Objects: 4000,
		Fleet:   true,
		Phases: withWarmUp(
			phaseSpec{Name: "mixed", Kind: mixed, Ops: 600, Latency: true, Throughput: true},
			phaseSpec{Name: "insert", Kind: inserts, Ops: 30, Latency: true, HeapAfter: true},
		),
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
