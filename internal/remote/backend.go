// Package remote puts the shard-stage interface the scatter-gather engine
// composes behind an RPC boundary, so shards can run on separate hosts with
// the existing HTTP tier as the coordinator.
//
// The surface is ShardBackend: the per-shard operations internal/shard's
// Engine fans out — the two query stages (FastSearchBatch,
// GroundCandidates), ingest and index builds, the planning digest, one
// Status snapshot that answers every "what are you right now" question, and
// snapshot save/load. Stage 1 and ingest each have one shape, a batch: a
// lone query or a lone video is a batch of one. shard.Local implements the
// surface in-process (a replica group of R equal-seeded systems); Client
// implements it over a length-prefixed binary protocol on persistent
// connections, and Server hosts any implementation behind a net.Listener.
// Because both sides speak the exact stage functions core.ExecutePlanBatch
// composes, an engine whose backends are all remote answers
// byte-identically to the single-process system — the conformance suite in
// this package pins that bit for bit over in-memory pipes.
//
// Failure semantics: read operations (both query stages, the planning
// digest, snapshot save) are idempotent and retried a bounded number of times
// on transport errors; Status takes one attempt under a dial-scale deadline
// (it rides every serving request, so a blackholed worker must cost one
// DialTimeout, not the retry budget);
// mutating operations (ingest, index builds, snapshot load) are dispatched
// at most once — a transport failure after the request may have left the
// client surfaces as an error instead of risking a double apply. Worker-side
// replica failover (PR 3's replica groups) composes underneath: a worker
// hosting R replicas fails over internally and only surfaces an error when
// its whole group is down.
package remote

import (
	"context"

	"repro/internal/core"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// ReplicaStat is the observable state of one replica of one shard, surfaced
// by the serving tier's /stats and /metrics. (internal/shard aliases this
// type; it lives here so remote workers can report it over the wire without
// an import cycle.)
type ReplicaStat struct {
	Healthy  bool   `json:"healthy"`
	Reads    uint64 `json:"reads"`
	Inflight int64  `json:"inflight"`
}

// ConfigSummary is the codec-friendly digest of a shard's resolved
// core.Config — the fields that must agree between a coordinator and its
// workers for answers to be well-defined. Seeded encoders mean a worker
// booted with a different seed embeds queries into a different space; the
// coordinator checks summaries at boot and fails fast on a mismatch.
type ConfigSummary struct {
	Dim          int
	ProjDim      int
	Seed         uint64
	Index        string
	FastK        int
	TopN         int
	RerankFrames int
	// Streaming and SegmentSize describe the worker's store mode. They are
	// part of Compatible: a streaming worker seals per-segment indexes whose
	// seeds derive from segment identities, so mixing store modes (or seal
	// thresholds) across a fleet would give shards differently-built
	// approximate indexes for the same corpus slice.
	Streaming   bool
	SegmentSize int
	// Replicas is the worker's replica count — informational, and
	// deliberately excluded from Compatible: replica counts may differ
	// across workers without changing any answer.
	Replicas int
}

// Summarize digests a resolved core.Config (see core.Config.Resolved).
func Summarize(cfg core.Config, replicas int) ConfigSummary {
	return ConfigSummary{
		Dim:          cfg.Dim,
		ProjDim:      cfg.ProjDim,
		Seed:         cfg.Seed,
		Index:        string(cfg.Index),
		FastK:        cfg.FastK,
		TopN:         cfg.TopN,
		RerankFrames: cfg.RerankFrames,
		Streaming:    cfg.Streaming,
		SegmentSize:  cfg.SegmentSize,
		Replicas:     replicas,
	}
}

// Compatible reports whether two summaries describe the same query space
// and merge parameters (replica counts are free to differ).
func (s ConfigSummary) Compatible(o ConfigSummary) bool {
	return s.Dim == o.Dim && s.ProjDim == o.ProjDim && s.Seed == o.Seed &&
		s.Index == o.Index && s.FastK == o.FastK && s.TopN == o.TopN &&
		s.RerankFrames == o.RerankFrames &&
		s.Streaming == o.Streaming && s.SegmentSize == o.SegmentSize
}

// ShardStatus is one consistent snapshot of a shard: everything the
// coordinator ever asks a shard about itself, read in one call (one RPC for
// a remote shard) so the fields describe the same moment. Every field is a
// counter load — assembling it never walks an index — which is what lets the
// same shape serve the per-request built/generation check and a /stats
// scrape.
type ShardStatus struct {
	// BootID is the hosting remote.Server's instance nonce (0 in-process):
	// it changes when the worker process restarts, and since workers boot
	// empty a change after recorded ingest progress means the shard's slice
	// of the corpus is gone.
	BootID uint64
	// Addr is the worker address, stamped by Client ("" in-process) — also
	// beside an error, so an unreachable worker can still be named.
	Addr string
	// Gen is the shard's mutation generation — the minimum across replicas,
	// so a cached answer can never outlive a laggard.
	Gen uint64
	// Built reports whether every non-empty replica has built its index.
	Built bool
	// Entities is the indexed patch-vector count and Ingest the ingest
	// statistics (one replica's view; copies don't multiply the corpus).
	Entities int
	Ingest   core.IngestStats
	// Replicas is per-replica health, read counts and in-flight load. A
	// shard with no healthy replica cannot serve.
	Replicas []ReplicaStat
	// Segments is the primary replica's streaming segment breakdown;
	// Streaming=false for a batch store.
	Segments vectordb.SegmentStats
	// Config digests the shard's resolved configuration.
	Config ConfigSummary
}

// ShardBackend is one shard of a scatter-gather engine: the stage surface
// Engine composes, whether the shard lives in-process (shard.Local) or on
// another host (Client). Every method is safe for concurrent use.
type ShardBackend interface {
	// IngestVideos ingests videos in order (fanning out to every replica
	// worker-side), so the shard's state is byte-identical to ingesting
	// them one by one. Mutating: dispatched at most once over the wire.
	IngestVideos(vs []*video.Video) error
	// BuildIndex builds (or, in streaming mode, seals) the shard's index.
	BuildIndex() error
	// FastSearchBatch runs stage 1 against the shard's slice of the corpus
	// for each (text, plan) pair under the plan's leg knobs (ShardK depth,
	// Exact/NProbe/Ef/Int8 effort), returning one local top-ShardK hit list
	// per query in canonical order. The context carries the query's
	// tracing recorder (see internal/obs): a remote backend ships the trace
	// id over the wire and grafts the worker's exported spans back into the
	// caller's trace; tracing never changes the hits.
	FastSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][]core.ResultObject, error)
	// GroundCandidates runs stage 2 over the candidate frames this shard
	// owns; groundings align with refs. Context as on FastSearchBatch.
	GroundCandidates(ctx context.Context, text string, refs []core.FrameRef, workers int) ([]core.Grounding, error)
	// PlanStats exports the shard's planning digest — selectivity sample,
	// per-term posting statistics and calibrated effort ladder — which the
	// coordinator's planner combines across shards (calibrating the shard
	// lazily if its corpus changed since the last export).
	PlanStats() (core.PlanStats, error)
	// Status snapshots the shard's identity, generation, health and
	// statistics. An error means the shard is unreachable.
	Status() (ShardStatus, error)
	// SaveSnapshot serialises one replica's full system state.
	SaveSnapshot() ([]byte, error)
	// LoadSnapshot restores a SaveSnapshot payload into every replica of
	// this freshly-constructed shard.
	LoadSnapshot(data []byte) error
	// Close releases client-side resources (no-op for in-process shards).
	Close() error
}
