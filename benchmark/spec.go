package benchmark

import (
	"fmt"
	"time"
)

// Ground rules shared by every workload (see README.md).
const (
	// maxClients bounds the generator: nproc is 2 on the reference box, so
	// a workload never runs more than two client goroutines/connections.
	maxClients = 2
	// shards is the engine width of every topology.
	shards = 2
	// cacheSize is the serving tier's production default (cmd/lovod -cache).
	cacheSize = 512
	// sampleEvery is the seeded 1-in-N share of replies replayed on the
	// reference system; batchSampleEvery is scan_batch's share of batches
	// (each is eight answers, and its replays are the costly ones).
	sampleEvery      = 16
	batchSampleEvery = 8
	// batchSize is the /query/batch width of scan_batch.
	batchSize = 8
	// hotTexts is hot_cache's working set; it fits the result cache.
	hotTexts = 256
	// clipInterval is the open-loop writer's schedule: one clip of
	// clipFrames frames every interval is 600 frames/s.
	clipInterval = 50 * time.Millisecond
	// liveSegmentSize is live_ingest's seal threshold. The production
	// default (4096) would seal about twice in a 10 s window at 600
	// frames/s; 512 fits >= 10 seals and several compactions into the
	// window the contract's run-time cap allows.
	liveSegmentSize = 512
	// requestTimeout bounds one HTTP request; a request that exceeds it is
	// a failed operation, and a failed operation enters every latency
	// percentile at this value.
	requestTimeout = 30 * time.Second
)

// sizing says how much a run does around its timed window. Every gate run
// uses gateSizing; smokeSizing exists so that smoke_test.go can take all four
// workloads through every code path inside a -race test.
type sizing struct {
	// scale, when non-zero, replaces the workload's corpus scale, and
	// videos, when non-zero, caps the corpus at its first videos.
	scale  float64
	videos int
	// warmup runs the workload's traffic untimed before the window, so
	// caches, pools and lazy calibration have settled.
	warmup time.Duration
	// setupRounds is how many times the system is set up from scratch;
	// setup_s and ingested_frames_per_s are medians over the rounds and
	// the last round's system is the one measured.
	setupRounds int
	// tracedOps is the traced pass's length in queries.
	tracedOps int
	// probeClips is the serial /ingest probe's length; probeFrames how
	// many keyframes the ViT and rerank probes time; scratchClips how many
	// clips the scratch system ingests; rpcCalls the RPC probe's length.
	probeClips, probeFrames, scratchClips, rpcCalls int
}

var (
	gateSizing = sizing{warmup: 3 * time.Second, setupRounds: 3, tracedOps: 300,
		probeClips: 128, probeFrames: 64, scratchClips: 16, rpcCalls: 48}
	smokeSizing = sizing{scale: 0.04, videos: 8, warmup: 200 * time.Millisecond, setupRounds: 1, tracedOps: 8,
		probeClips: 2, probeFrames: 8, scratchClips: 2, rpcCalls: 4}
)

// traffic is the kind of load a workload offers.
type traffic int

const (
	// trafficQuery: closed loop, POST /query, texts without replacement.
	trafficQuery traffic = iota
	// trafficBatch: closed loop, POST /query/batch of batchSize texts.
	trafficBatch
	// trafficHot: closed loop, POST /query, Zipf over hotTexts texts.
	trafficHot
	// trafficLive: one open-loop /ingest writer beside one closed-loop reader.
	trafficLive
)

// Workload is one named traffic mix on one topology.
type Workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records.
	Why string
	// Scale is the corpus size; 1.0 is ~11k frames, ~23k vectors.
	Scale float64
	// Remote puts each shard behind a remote worker on a loopback TCP
	// socket; otherwise the shards are in-process.
	Remote bool
	// Streaming selects the segmented continuous-ingest store.
	Streaming bool
	Traffic   traffic
	// Options is the "options" object every request of the workload sends.
	Options string
}

// Workloads are the gate's four traffic mixes. The names are fixed: later
// issues cite them. The corpus scales are smaller than the issue's first
// sketch (1.0 / 3.0 / 0.3 / 0.3) because the contract caps one run at about
// half a minute including three set-ups and the reference build.
var Workloads = []Workload{
	{
		Name:    "interactive",
		Why:     "HTTP -> coordinator -> 2 RPC workers, distinct texts (no cache hits): stage-2 rerank dominates, the paper's headline path",
		Scale:   0.6,
		Remote:  true,
		Traffic: trafficQuery,
		Options: `{}`,
	},
	{
		Name:    "scan_batch",
		Why:     "batches of 8 exhaustive no-rerank queries on in-process shards: stage-1 scanning is all of the work, rerank none",
		Scale:   0.75,
		Traffic: trafficBatch,
		Options: `{"exhaustive":true,"disable_rerank":true}`,
	},
	{
		Name:    "hot_cache",
		Why:     "Zipf over 256 texts that fit the 512-entry cache: HTTP, plan and cache are the cost, engine and RPC are bypassed",
		Scale:   0.3,
		Remote:  true,
		Traffic: trafficHot,
		Options: `{}`,
	},
	{
		Name:      "live_ingest",
		Why:       "open-loop 600 frames/s /ingest writer beside a fast-search reader on streaming shards: seals and compactions under load",
		Scale:     0.3,
		Streaming: true,
		Traffic:   trafficLive,
		Options:   `{"disable_rerank":true}`,
	},
}

func (w Workload) sampleEvery() int {
	if w.Traffic == trafficBatch {
		return batchSampleEvery
	}
	return sampleEvery
}

// workloadByName finds a workload.
func workloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Metric declares one reported number. BENCHMARK.json mirrors these tables;
// smoke_test.go fails when the two drift apart.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before the change is a regression (0 for
	// per-layer metrics, which gate nothing).
	Bound float64
	// Doc says what is measured and, for a layer metric, which end-to-end
	// metric it should move (README.md carries the full table).
	Doc string
}

// EndToEnd are the numbers a user of the system sees, reported by every
// workload with tracing off. The bounds are what ten runs on ten seeds allow:
// a third of a bound must cover the spread between seeds, which is 4-10% for
// every timing because the seed sizes the corpus (README.md has the numbers).
// Three of the issue's ten are not here. fail_ratio is the result line's
// failed/attempted: a gated metric may never be zero. avep is core.avep below:
// between seeds it spreads by 12-30% of its median, wider than any bound the
// contract allows. query_p95_ms is server.p95_ms below: its spread was 11% on a
// quiet box and 33% when a neighbour was busy, and the issue demotes any
// timing that spreads by more than a tenth.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25, "first Ingest call -> BuildIndex returned and /healthz ok; median of the run's set-up rounds"},
	{"qps", "queries/s", "higher", 0.25, "verified-correct queries completed per second of window (a batch of 8 counts 8)"},
	{"query_p50_ms", "ms", "lower", 0.25, "per HTTP query request (per batch on scan_batch), send -> full body read"},
	{"ingest_p50_ms", "ms", "lower", 0.25, "POST /ingest of one 30-frame clip, due time -> body read: the open-loop writer on live_ingest, a serial post-window probe elsewhere"},
	{"corpus_heap_mb", "MiB", "lower", 0.20, "HeapInuse growth over one set-up, after GC (the larger of end of set-up and end of window on live_ingest)"},
	{"ingested_frames_per_s", "frames/s", "higher", 0.25, "corpus frames / Ingest wall time during set-up, BuildIndex excluded"},
}

// PerLayer are the numbers of single layers, reported by every workload's
// traced run. They gate nothing; they say where an end-to-end change came from.
var PerLayer = []Metric{
	{Name: "query.parse_us", Unit: "us", Better: "lower", Doc: "query.Parse of one text; moves core.stage1_ms and core.stage2_ms, which both parse"},
	{Name: "embed.text_encode_us", Unit: "us", Better: "lower", Doc: "TextEncoder.FastVec + Space.Project; moves query_p50_ms@live_ingest"},
	{Name: "core.plan_us", Unit: "us", Better: "lower", Doc: "Engine.PlanQueryCtx; moves query_p50_ms@hot_cache (plans resolve before the cache lookup)"},
	{Name: "core.stage1_ms", Unit: "ms", Better: "lower", Doc: "time an operation blocks on stage 1: SearchPlanned(Batch) on every shard's system, legs in parallel; moves query_p50_ms@scan_batch, live_ingest"},
	{Name: "core.stage2_ms", Unit: "ms", Better: "lower", Doc: "time an operation blocks on stage 2: GroundCandidates per leg; moves query_p50_ms, qps@interactive"},
	{Name: "core.merge_us", Unit: "us", Better: "lower", Doc: "MergeHits+CandidateFrames+SelectForRerank+RankGroundings (DedupHits without rerank); moves query_p50_ms@interactive a little"},
	{Name: "core.candidate_frames", Unit: "count/query", Better: "lower", Doc: "distinct frames after the stage-1 merge; repeats exactly; explains core.stage2_ms"},
	{Name: "core.rerank_frames", Unit: "count/query", Better: "lower", Doc: "frames sent to stage 2; repeats exactly; explains core.stage2_ms"},
	{Name: "core.avep", Unit: "AveP", Better: "higher", Doc: "mean AveragePrecision of the corpus' Table II queries asked through the workload's own HTTP path; repeats exactly on equal seeds"},
	{Name: "core.ingest_ms_per_clip", Unit: "ms", Better: "lower", Doc: "core.System.Ingest of one 30-frame clip on a scratch system; moves ingest_p50_ms, setup_s"},
	{Name: "vectordb.search_us", Unit: "us", Better: "lower", Doc: "Collection.Search / SegmentedCollection.Search with the projected query under the plan's ann.Params; moves core.stage1_ms"},
	{Name: "vectordb.search_batch_us_per_query", Unit: "us", Better: "lower", Doc: "Collection.SearchBatch with 8 queries, / 8 (8 Search calls on a segmented store); moves qps@scan_batch"},
	{Name: "vectordb.build_index_s", Unit: "s", Better: "lower", Doc: "Engine.BuildIndex during set-up; moves setup_s"},
	{Name: "vectordb.insert_us", Unit: "us", Better: "lower", Doc: "Insert of one vector into a scratch collection of the workload's kind; moves ingested_frames_per_s, ingest_p50_ms"},
	{Name: "vectordb.entities", Unit: "count", Better: "lower", Doc: "indexed vectors at the end of set-up; explains corpus_heap_mb"},
	{Name: "vectordb.raw_bytes", Unit: "B", Better: "lower", Doc: "Stats().RawBytes summed over shards; moves corpus_heap_mb"},
	{Name: "vectordb.index_bytes", Unit: "B", Better: "lower", Doc: "Stats().IndexBytes summed over shards; moves corpus_heap_mb"},
	{Name: "vectordb.seals", Unit: "count", Better: "higher", Doc: "segment seals during the window (0 on batch stores); moves server.p95_ms@live_ingest"},
	{Name: "vectordb.compactions", Unit: "count", Better: "higher", Doc: "compactions during the window; moves server.p95_ms@live_ingest"},
	{Name: "vectordb.sealed_segments_end", Unit: "count", Better: "lower", Doc: "sealed segments when the window ends: the reader's per-query fan-out"},
	{Name: "vectordb.maint_busy_ratio", Unit: "busy/wall", Better: "lower", Doc: "MaintLog root-span time / window: background work competing with reads and writes; moves server.p95_ms@live_ingest"},
	{Name: "mat.score_rows_mvec_s", Unit: "Mvec/s", Better: "higher", Doc: "mat.ScoreRows over a fixed 65536x32 block on the active kernel tier; moves vectordb.search_us"},
	{Name: "relational.join_us", Unit: "us", Better: "lower", Doc: "per leg: SearchPlanned minus parse, encode and vector search, i.e. the metadata join; moves query_p50_ms@live_ingest"},
	{Name: "xmodal.ground_frame_us", Unit: "us", Better: "lower", Doc: "xmodal.Model.GroundFrame on keyframes fetched via System.Keyframe; moves core.stage2_ms"},
	{Name: "keyframe.select_us_per_frame", Unit: "us", Better: "lower", Doc: "Strategy.Select over corpus videos, per input frame; moves ingested_frames_per_s"},
	{Name: "keyframe.keep_ratio", Unit: "kept/seen", Better: "lower", Doc: "keyframes kept / frames seen; scales every ingest cost"},
	{Name: "vit.encode_frame_us", Unit: "us", Better: "lower", Doc: "vit.EncodeFrame of one keyframe; moves ingested_frames_per_s, ingest_p50_ms"},
	{Name: "vit.tokens_per_keyframe", Unit: "count", Better: "lower", Doc: "foreground tokens per keyframe: vectors inserted per frame"},
	{Name: "shard.scatter_overhead_us", Unit: "us", Better: "lower", Doc: "Engine.QueryPlanned minus (stage-1 wall + merge + stage-2 wall) of the re-composed operation; moves query_p50_ms@scan_batch"},
	{Name: "shard.leg_skew", Unit: "max/mean", Better: "lower", Doc: "slowest / mean stage-1 leg; moves server.p95_ms@scan_batch"},
	{Name: "remote.rpc_overhead_us", Unit: "us", Better: "lower", Doc: "Client.FastSearch over loopback minus SearchPlanned on that worker's system; moves query_p50_ms@interactive"},
	{Name: "remote.ground_rpc_overhead_us", Unit: "us", Better: "lower", Doc: "same for Client.GroundCandidates; moves query_p50_ms@interactive"},
	{Name: "remote.wire_bytes_per_query", Unit: "B", Better: "lower", Doc: "bytes over the worker sockets per window query (0 without workers); explains remote.rpc_overhead_us"},
	{Name: "remote.rpcs_per_query", Unit: "count", Better: "lower", Doc: "RPC round trips per window query (0 without workers)"},
	{Name: "server.http_overhead_us", Unit: "us", Better: "lower", Doc: "HTTP round trip minus PlanQueryCtx+QueryPlanned for the same cache-miss text; moves query_p50_ms@interactive, hot_cache"},
	{Name: "server.cache_hit_ratio", Unit: "hits/lookups", Better: "higher", Doc: "cached responses / responses in the window, cross-checked against /stats; ~1 on hot_cache, ~0 on interactive"},
	{Name: "server.cached_p50_us", Unit: "us", Better: "lower", Doc: "round trip of a cached:true response; moves query_p50_ms@hot_cache"},
	{Name: "server.response_bytes", Unit: "B", Better: "lower", Doc: "mean response body in the window; moves server.cached_p50_us"},
	{Name: "server.ingest_http_overhead_us", Unit: "us", Better: "lower", Doc: "POST /ingest round trip minus Engine.Ingest of a twin clip; moves ingest_p50_ms"},
	{Name: "server.p95_ms", Unit: "ms", Better: "lower", Doc: "window p95 of query requests (per batch on scan_batch); demoted from the gate, see EndToEnd"},
	{Name: "server.p99_ms", Unit: "ms", Better: "lower", Doc: "window p99 of query requests; too noisy to gate"},
	{Name: "server.ingest_p95_ms", Unit: "ms", Better: "lower", Doc: "95th percentile of /ingest; demoted from the gate: 200 clips leave 10 samples beyond it"},
	{Name: "datasets.gen_s", Unit: "s", Better: "lower", Doc: "corpus, query-pool and clip generation; excluded from setup_s, reported so it cannot hide there"},
	{Name: "go.alloc_kb_per_op", Unit: "KiB", Better: "lower", Doc: "TotalAlloc growth / window operations (server and generator share the process); moves server.p95_ms"},
	{Name: "go.allocs_per_op", Unit: "count", Better: "lower", Doc: "Mallocs growth / window operations"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Doc: "NumGC growth over the window"},
	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower", Doc: "PauseTotalNs growth over the window"},
	{Name: "go.cpu_util", Unit: "busy/wall", Better: "lower", Doc: "getrusage CPU time / (window x nproc): tells saturation from waiting"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower", Doc: "how late requests were sent: behind schedule for the open-loop writer, after the previous reply for closed-loop clients"},
	{Name: "loadgen.fail_ratio", Unit: "failed/attempted", Better: "lower", Doc: "non-2xx, transport error, timeout or wrong answer; any increase is a regression"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower", Doc: "re-composed traced operation p50 vs the same operation through Engine.QueryPlanned"},
	{Name: "loadgen.trace_unattributed_pct", Unit: "%", Better: "lower", Doc: "share of the re-composed operation no layer span covers"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect turns measured values into the reported set for a metric table,
// failing if a declared metric was not measured.
func collect(table []Metric, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(table))
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}
