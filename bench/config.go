package main

import "time"

// Every size, rate and window of the benchmark is a field of sizing and
// gets its committed value in defaultSizing below; nothing else in the
// package hard-codes a workload parameter. The values are recorded in
// the output JSON of every run.
//
// ISSUE 11 sized the benchmark for ~30 s windows over a 60 000-document
// corpus (~3.5 min for the five workloads). The driver's cap is 114
// single-workload runs in 3420 s, i.e. under 30 s per process including
// set-up, so every size and window is the issue's value divided by
// scaleDiv; rates and mechanism parameters (segment budget, injected
// latency, cache share) are unchanged.
const scaleDiv = 3

type sizing struct {
	ScaleDiv int `json:"scale_div"`

	// Corpus and index shape.
	Docs       int `json:"docs"`       // corpus documents per workload
	Vocab      int `json:"vocab"`      // distinct terms
	BodyTerms  int `json:"body_terms"` // mean document length
	Shards     int `json:"shards"`     // serve-cluster nodes
	Partitions int `json:"partitions"` // intra-server partitions per index
	TopK       int `json:"top_k"`

	// serve-cluster.
	ServeUnique int `json:"serve_unique_queries"`
	ServeCache  int `json:"serve_cache_entries"`
	ServeStream int `json:"serve_stream_requests"` // pre-drawn Zipf request stream, cycled

	// engine-or: OrTerms-term OR queries from vocabulary ranks
	// [OrRankLo, OrRankHi]; engine-and likewise with AND.
	EnginePool int `json:"engine_unique_queries"`
	OrTerms    int `json:"or_terms"`
	OrRankLo   int `json:"or_rank_lo"`
	OrRankHi   int `json:"or_rank_hi"`
	AndTerms   int `json:"and_terms"`
	AndRankLo  int `json:"and_rank_lo"`
	AndRankHi  int `json:"and_rank_hi"`

	// live-churn.
	LiveSeedDocs    int     `json:"live_seed_docs"`
	LiveMemtable    int     `json:"live_memtable_docs"`
	LiveMaxSegments int     `json:"live_max_segments"`
	LiveUnique      int     `json:"live_unique_queries"`
	WriterRate      float64 `json:"writer_rate_per_s"`
	UpdateShare     float64 `json:"update_share"` // the rest splits evenly into Add and Delete
	SentinelEvery   int     `json:"sentinel_every"`
	// WriterCooldown is the number of mutations during which a freshly
	// mutated key is not touched again; SentinelLookback (much smaller)
	// is how far back from the last acknowledged mutation the reader
	// probes, so a probed key is never concurrently rewritten.
	WriterCooldown   int `json:"writer_cooldown_ops"`
	SentinelLookback int `json:"sentinel_lookback_ops"`

	// blob-cold.
	BlobPool       int           `json:"blob_unique_queries"`
	BlobLatency    time.Duration `json:"blob_latency_ns"`
	BlobCacheShare int           `json:"blob_cache_share"` // block cache = postings bytes / share

	// Load shape. One run measures ClosedShare of --seconds in a closed
	// loop and the rest in an open loop at the workload's fixed rate.
	// OpenRate is about a third of the seed's closed-loop qps on a quiet
	// host (a quarter on blob-cold, whose service times are heavy-tailed:
	// p99 = 25 x p50). The issue asked for half. The host's speed swings
	// by a third between minutes; from half load that reaches the knee of
	// the queueing curve and the open-loop numbers measured the host.
	Clients     int                `json:"clients"`
	Warmup      time.Duration      `json:"warmup_ns"`
	ClosedShare float64            `json:"closed_share"`
	OpenDiscard float64            `json:"open_discard_share"` // head of the open phase not reported
	OpenRate    map[string]float64 `json:"open_rate_per_s"`
	// OpenLimit is the latency limit of the open loop: open_qos_share is
	// the share of its requests answered correctly within it.
	OpenLimit map[string]time.Duration `json:"open_limit_ns"`

	// Traced run: TraceClosedShare of --seconds goes to the closed loop,
	// cut into TraceSlices slices, in pairs of one untraced and one traced
	// slice; trace.overhead_share is the median qps loss over the pairs.
	// The rest is the traced open loop.
	TraceClosedShare float64 `json:"trace_closed_share"`
	TraceSlices      int     `json:"trace_slices"`

	SetupRepeats int `json:"setup_repeats"`
	// blob-cold's set-up (publish plus cold open) takes a tenth of a
	// second, so its median needs and can afford more repeats.
	BlobSetupRepeats int `json:"blob_setup_repeats"`
	ProbeQueries     int `json:"probe_queries"` // queries per per-layer probe
	ProbeLists       int `json:"probe_lists"`   // longest posting lists walked by the index probes

	// Validity limit; a run beyond it exits non-zero. The issue asked for
	// 1 ms. Generator and program share one Go scheduler on two cores, so
	// a dispatcher woken while both run CPU-bound work (a query, a flush,
	// a merge) waits for a scheduling point: p99 is 1-2 ms on the query
	// workloads and up to the 10 ms preemption quantum beside live-churn's
	// background merges, where several woken goroutines can queue behind
	// each other. Five quanta cannot come from the program.
	MaxLateness time.Duration `json:"max_lateness_p99_ns"`
	// BacklogSlack: a paced loop whose every request of the last tenth
	// was dispatched later than this has a backlog that no longer drains.
	BacklogSlack time.Duration `json:"backlog_slack_ns"`
}

var defaultSizing = sizing{
	ScaleDiv:   scaleDiv,
	Docs:       60000 / scaleDiv,
	Vocab:      30000,
	BodyTerms:  250,
	Shards:     2,
	Partitions: 2,
	TopK:       10,

	ServeUnique: 20000 / scaleDiv,
	ServeCache:  2000 / scaleDiv,
	ServeStream: 1 << 17,

	// The issue's 50 000 unique queries per engine workload would need
	// ~50 s of unpruned oracle evaluation per run; the pool is cut to
	// what the oracle can answer in about a second and is cycled. No
	// cache sits on this path, so repetition does not change the work.
	EnginePool: 3000,
	OrTerms:    4, OrRankLo: 0, OrRankHi: 100,
	AndTerms: 3, AndRankLo: 20, AndRankHi: 400,

	LiveSeedDocs:     30000 / scaleDiv,
	LiveMemtable:     1024 / scaleDiv, // so a window still sees tens of flushes
	LiveMaxSegments:  8,
	LiveUnique:       1000,
	WriterRate:       1000,
	UpdateShare:      0.70,
	SentinelEvery:    50,
	WriterCooldown:   3000,
	SentinelLookback: 200,

	BlobPool:       6000,
	BlobLatency:    200 * time.Microsecond,
	BlobCacheShare: 8,

	Clients:     2,
	Warmup:      3 * time.Second / scaleDiv,
	ClosedShare: 14.0 / 26.0,
	OpenDiscard: 0.1,
	OpenRate: map[string]float64{
		"serve-cluster": 3000,
		"engine-or":     1800,
		"engine-and":    6000,
		"live-churn":    3000,
		"blob-cold":     50,
	},
	OpenLimit: map[string]time.Duration{
		"serve-cluster": 5 * time.Millisecond,
		"engine-or":     3 * time.Millisecond,
		"engine-and":    2 * time.Millisecond,
		"live-churn":    10 * time.Millisecond,
		"blob-cold":     50 * time.Millisecond,
	},
	TraceClosedShare: 0.7,
	TraceSlices:      8,

	SetupRepeats:     3,
	BlobSetupRepeats: 9,
	ProbeQueries:     500,
	ProbeLists:       256,

	MaxLateness:  50 * time.Millisecond,
	BacklogSlack: 20 * time.Millisecond,
}

// gates are the bounds `bench -compare` applies, by workload and metric.
// BENCHMARK.json holds one bound per end-to-end metric for all workloads,
// which has to be the one its noisiest workload needs; a workload that
// repeats better is held to a tighter one here, and the metrics ISSUE 11
// gates on a single workload (BENCHMARK.json's end-to-end list has room
// only for metrics every workload has) are gated on that workload. A pair
// not listed falls back to BENCHMARK.json's bound. Each value is the
// issue's bound or twice the workload's spread over five runs on one seed
// (the larger of results/REPEAT_11_a.json and _b.json), whichever is more,
// rounded up to a twentieth and capped at 25 %; README.md, "Bounds", has
// the table. loadgen.open_p99_ms (spread 0.5-0.7) is not gated.
var gates = map[string]map[string]float64{
	"serve-cluster": {"qps": 0.10, "p50_ms": 0.10, "p99_ms": 0.25, "open_qos_share": 0.05,
		"setup_s": 0.15, "heap_mb": 0.05, "index_bytes_per_doc": 0.005},
	"engine-or": {"qps": 0.10, "p50_ms": 0.10, "p99_ms": 0.25, "open_qos_share": 0.10,
		"setup_s": 0.15, "heap_mb": 0.05, "index_bytes_per_doc": 0.005},
	"engine-and": {"qps": 0.10, "p50_ms": 0.10, "p99_ms": 0.15, "open_qos_share": 0.05,
		"setup_s": 0.10, "heap_mb": 0.05, "index_bytes_per_doc": 0.005},
	"live-churn": {"qps": 0.20, "p50_ms": 0.15, "p99_ms": 0.25, "open_qos_share": 0.05,
		"setup_s": 0.20, "heap_mb": 0.15, "index_bytes_per_doc": 0.005,
		"live.write_p50_ms": 0.15, "live.write_p99_ms": 0.25},
	"blob-cold": {"qps": 0.10, "p50_ms": 0.05, "p99_ms": 0.10, "open_qos_share": 0.10,
		"setup_s": 0.25, "heap_mb": 0.05, "index_bytes_per_doc": 0.005,
		"blob.ttfq_ms": 0.25},
}
