// Package lovo is the public API of the LOVO reproduction: an efficient
// complex-object query system for large-scale video datasets (ICDE 2025).
//
// LOVO performs one-time, query-agnostic feature extraction over video
// keyframes, stores compact patch-level class embeddings under a
// product-quantized inverted multi-index in an embedded vector database
// (with bounding boxes and frame IDs in a relational side-store joined by
// patch ID), and answers natural-language object queries with a two-stage
// strategy: approximate nearest-neighbour fast search followed by a
// cross-modality transformer rerank.
//
// Quickstart:
//
//	sys, _ := lovo.Open(lovo.Options{Seed: 1})
//	ds, _ := lovo.LoadDataset("bellevue", lovo.DatasetConfig{Seed: 1, Scale: 0.2})
//	_ = sys.IngestDataset(ds)
//	_ = sys.BuildIndex()
//	res, _ := sys.Query("A red car driving in the center of the road.", lovo.QueryOptions{})
//	for _, obj := range res.Objects {
//		fmt.Println(obj.VideoID, obj.FrameIdx, obj.Box, obj.Score)
//	}
//
// Videos here are synthetic scene descriptions (see internal/video and
// DESIGN.md): the repository reproduces the paper's system behaviour and
// evaluation shape without GPU encoders or raw footage.
package lovo

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/keyframe"
	"repro/internal/shard"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// Re-exported data types. These alias internal types so downstream code
// only imports this package.
type (
	// Video is an ordered sequence of frames.
	Video = video.Video
	// Frame is one scene snapshot.
	Frame = video.Frame
	// Object is one object observation within a frame.
	Object = video.Object
	// Box is a normalised bounding box.
	Box = video.Box
	// Result is a ranked query answer with stage timings.
	Result = core.Result
	// ResultObject is one retrieved object.
	ResultObject = core.ResultObject
	// QueryOptions tunes a single query (rerank/ANNS ablations, depths and
	// budgets, and plan pinning via Plan).
	QueryOptions = core.QueryOptions
	// Plan is an explicit, executable description of one query: every
	// stage-1 and stage-2 knob resolved to a concrete value. Obtain one
	// from PlanQuery and pin it via QueryOptions.Plan to replay the exact
	// same execution later — a pinned plan answers byte-identically on
	// every deployment shape (single system, sharded, remote).
	Plan = core.Plan
	// IngestStats reports Video Summary counters and timings.
	IngestStats = core.IngestStats
	// Dataset is a generated benchmark workload.
	Dataset = datasets.Dataset
	// DatasetConfig controls workload generation (seed, fps, scale).
	DatasetConfig = datasets.Config
	// DatasetQuery is one benchmark query of a dataset.
	DatasetQuery = datasets.Query
)

// Options configure a LOVO system.
type Options struct {
	// Seed drives all randomness; equal seeds give identical systems.
	Seed uint64
	// Index selects the vector index: "imi" (default, the paper's
	// inverted multi-index), "ivfpq", "hnsw" or "flat".
	Index string
	// Keyframes selects the extraction strategy: "mvmed" (default),
	// "uniform" or "all" (the w/o-keyframe ablation).
	Keyframes string
	// FastK is the fast-search candidate count (default 100).
	FastK int
	// TopN is the number of reranked frames returned (default 10). A
	// QueryOptions.DisableRerank query ignores it: it returns up to FastK
	// deduplicated fast-search hits.
	TopN int
	// NProbe is the number of clusters probed per subspace (default 16).
	NProbe int
	// Dim and ProjDim set the embedding dimensions D and D′ (defaults
	// 64 and 32).
	Dim, ProjDim int
	// SegmentSize > 0 enables segmented incremental indexing (the paper's
	// Section IX future work): the store seals a segment every SegmentSize
	// vectors and each BuildIndex seals the current one instead of
	// rebuilding, so continuously arriving footage never pays a full-index
	// rebuild. Zero keeps one index: each BuildIndex rebuilds everything
	// ingested into one segment, and footage ingested after a build is
	// exact-scanned until the next.
	SegmentSize int
	// Workers bounds the goroutines of the concurrent execution engine:
	// keyframe encoding during ingest, the stage-2 rerank fan-out, and
	// the default QueryBatch client pool. Zero means runtime.NumCPU();
	// 1 forces the serial paths. Results are identical at every setting.
	Workers int
	// Shards partitions the corpus across N independent shard systems by
	// video ID and answers queries by scatter-gather: every shard
	// fast-searches its local index, hits merge into the deterministic
	// global top-k (score, then patch ID), and candidate frames rerank
	// on the shard owning their keyframes. Zero or one keeps the
	// single-system path; a one-shard engine answers byte-identically to
	// it. Ingest of a dataset fans out across shards in parallel. Each
	// patch is stored once, under its shard's one index.
	Shards int
}

// System is a LOVO instance: a single core system, or a sharded
// scatter-gather engine when Options.Shards > 1.
type System struct {
	inner  *core.System  // nil when sharded
	engine *shard.Engine // nil when unsharded
}

// Open constructs a system.
func Open(opts Options) (*System, error) {
	cfg := core.Config{
		Seed:        opts.Seed,
		FastK:       opts.FastK,
		TopN:        opts.TopN,
		NProbe:      opts.NProbe,
		Dim:         opts.Dim,
		ProjDim:     opts.ProjDim,
		SegmentSize: opts.SegmentSize,
		Workers:     opts.Workers,
	}
	kind, err := vectordb.ParseKind(opts.Index)
	if err != nil {
		return nil, fmt.Errorf("lovo: %w", err)
	}
	cfg.Index = kind
	switch opts.Keyframes {
	case "", "mvmed":
		cfg.Keyframe = keyframe.MVMed{}
	case "uniform":
		cfg.Keyframe = keyframe.Uniform{}
	case "all":
		cfg.Keyframe = keyframe.All{}
	default:
		return nil, fmt.Errorf("lovo: unknown keyframe strategy %q", opts.Keyframes)
	}
	if opts.Shards > 1 {
		engine, err := shard.New(opts.Shards, cfg)
		if err != nil {
			return nil, err
		}
		return &System{engine: engine}, nil
	}
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{inner: inner}, nil
}

// Ingest runs one-time Video Summary over a video. On a sharded system the
// video routes to the shard owning its ID.
func (s *System) Ingest(v *Video) error {
	if s.engine != nil {
		return s.engine.Ingest(v)
	}
	return s.inner.Ingest(v)
}

// IngestDataset ingests every video of a dataset. On a sharded system the
// dataset fans out across shards in parallel.
func (s *System) IngestDataset(ds *Dataset) error {
	if s.engine != nil {
		return s.engine.IngestDataset(ds)
	}
	for i := range ds.Videos {
		if err := s.inner.Ingest(&ds.Videos[i]); err != nil {
			return err
		}
	}
	return nil
}

// BuildIndex constructs the vector index over everything ingested (every
// non-empty shard's index, in parallel, when sharded).
func (s *System) BuildIndex() error {
	if s.engine != nil {
		return s.engine.BuildIndex()
	}
	return s.inner.BuildIndex()
}

// querier is the deployment shape behind this system as the one
// whole-query surface core defines: plan under a context, execute plans.
func (s *System) querier() core.Querier {
	if s.engine != nil {
		return s.engine
	}
	return s.inner
}

// Query answers a natural-language object query (Algorithm 2): resolve a
// plan, then execute it (core.Query). Queries may run from many goroutines
// concurrently, including while Ingest continues. On a sharded system both
// stages scatter and the merged answer is deterministic — byte-identical to
// the single-system path for one shard.
//
// With no options set, Query executes the system's fixed default plan —
// the paper's two-stage plan at the Config's knobs; the other option fields
// override single knobs of it, and setting QueryOptions.Plan replays a
// previously resolved plan verbatim.
//
// Query, PlanQuery and QueryBatch are the only context-less query entry
// points in the repository; everything beneath them takes a context (the
// tracing recorder rides it).
func (s *System) Query(text string, opts QueryOptions) (*Result, error) {
	//lovo:ctx-ok public ctx-less convenience over core.Query; servers and workers call the ctx-taking surface directly
	return core.Query(context.Background(), s.querier(), text, opts)
}

// PlanQuery resolves the plan Query would execute for text under opts —
// the fixed defaults with the options' overrides, or the caller's pinned
// plan normalized — without executing it. Pin the returned plan via QueryOptions.Plan to
// replay it byte-identically, on this system or any other deployment
// shape built from the same corpus and seed.
func (s *System) PlanQuery(text string, opts QueryOptions) (Plan, error) {
	//lovo:ctx-ok public ctx-less convenience over Querier.PlanQueryCtx
	return s.querier().PlanQueryCtx(context.Background(), text, opts)
}

// QueryBatch plans every query, then executes the whole batch at once
// (core.QueryBatch): stage 1 shares one sweep over the stored vectors and
// stage 2 fans out across at most clients goroutines (zero uses the
// system's Workers setting, which defaults to runtime.NumCPU()). Results
// align with texts, and each equals what a lone Query call would return;
// the first failing query fails the batch.
func (s *System) QueryBatch(texts []string, opts QueryOptions, clients int) ([]*Result, error) {
	//lovo:ctx-ok public ctx-less convenience over core.QueryBatch
	return core.QueryBatch(context.Background(), s.querier(), texts, opts, clients)
}

// Stats returns ingest statistics (aggregated across shards when sharded).
func (s *System) Stats() IngestStats {
	if s.engine != nil {
		return s.engine.Status().Ingest
	}
	return s.inner.Stats()
}

// Core exposes the underlying system for experiment harnesses. It is nil
// on a sharded system — use Engine there.
func (s *System) Core() *core.System { return s.inner }

// Engine exposes the scatter-gather engine of a sharded system (nil when
// Options.Shards <= 1). It satisfies the serving tier's Backend interface,
// so it can be mounted directly behind internal/server.
func (s *System) Engine() *shard.Engine { return s.engine }

// Save persists the full system state — patch vectors with the index
// recipe, relational metadata, keyframes and stats — so a later Load
// serves queries without re-running Video Summary. The store's segments
// are saved as they stand, and Load refuses them in a system opened with
// another Index or SegmentSize. Must not run concurrently with Ingest or
// BuildIndex.
func (s *System) Save(w io.Writer) error {
	if s.engine != nil {
		return s.engine.SaveSnapshot(w)
	}
	return s.inner.SaveSnapshot(w)
}

// Load restores a snapshot written by Save into this freshly-opened,
// empty system. Open with the same Options as the saver (seed, dimensions,
// index, segment size and shard count must match; the index is rebuilt
// from the recorded recipe).
func (s *System) Load(r io.Reader) error {
	if s.engine != nil {
		return s.engine.LoadSnapshot(r)
	}
	return s.inner.LoadSnapshot(r)
}

// LoadDataset generates a named benchmark dataset: "cityscapes",
// "bellevue", "qvhighlights", "beach" or "activitynet".
func LoadDataset(name string, cfg DatasetConfig) (*Dataset, error) {
	return datasets.ByName(name, cfg)
}
