// Package remote puts the shard-stage interface the scatter-gather engine
// composes behind an RPC boundary, so shards can run on separate hosts with
// the existing HTTP tier as the coordinator.
//
// The surface is ShardBackend: the per-shard operations internal/shard's
// Engine fans out — the two query stages (FastSearchBatch,
// GroundCandidates), ingest and index builds, one Status snapshot that
// answers every "what are you right now" question, and snapshot save/load.
// Stage 1 and ingest each have one shape, a batch: a
// lone query or a lone video is a batch of one. shard.Local implements the
// surface in-process (one core.System); Client
// implements it over a length-prefixed binary protocol on persistent
// connections, and Server hosts any implementation behind a net.Listener.
// Because both sides speak the exact stage functions core.ExecutePlanBatch
// composes, an engine whose backends are all remote answers
// byte-identically to the single-process system — the conformance suite in
// this package pins that bit for bit over in-memory pipes.
//
// Failure semantics: read operations (both query stages, snapshot save) are
// idempotent and retried a bounded number of times on transport errors;
// Status takes one attempt under a dial-scale deadline
// (it rides every serving request that misses the cache, so a blackholed
// worker must cost one DialTimeout, not the retry budget), and a watch —
// Status with a since stamp — runs on a connection of its own outside the
// pool;
// mutating operations (ingest, index builds, snapshot load) are dispatched
// at most once — a transport failure after the request may have left the
// client surfaces as an error instead of risking a double apply.
package remote

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/vectordb"
	"repro/internal/video"
)

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
	// SegmentSize is the worker's store: 0 for a batch store, else the
	// segmented store's seal threshold. It is part of Compatible: a
	// segmented worker seals per-segment indexes whose seeds derive from
	// segment identities, so mixing stores (or seal thresholds) across a
	// fleet would give shards differently-built approximate indexes for the
	// same corpus slice.
	SegmentSize int
}

// Summarize digests a resolved core.Config (see core.Config.Resolved). The
// second argument is ignored; it stays only because benchmark/ passes it
// (ROADMAP item 1).
func Summarize(cfg core.Config, _ int) ConfigSummary {
	return ConfigSummary{
		Dim:          cfg.Dim,
		ProjDim:      cfg.ProjDim,
		Seed:         cfg.Seed,
		Index:        string(cfg.Index),
		FastK:        cfg.FastK,
		TopN:         cfg.TopN,
		RerankFrames: cfg.RerankFrames,
		SegmentSize:  cfg.SegmentSize,
	}
}

// Compatible reports whether two summaries describe the same query space
// and merge parameters.
func (s ConfigSummary) Compatible(o ConfigSummary) bool {
	return s.Dim == o.Dim && s.ProjDim == o.ProjDim && s.Seed == o.Seed &&
		s.Index == o.Index && s.FastK == o.FastK && s.TopN == o.TopN &&
		s.RerankFrames == o.RerankFrames && s.SegmentSize == o.SegmentSize
}

// ShardStatus is one consistent snapshot of a shard: everything the
// coordinator ever asks a shard about itself, read in one call (one RPC for
// a remote shard) so the fields describe the same moment. Every field is a
// counter load — assembling it never walks an index — which is what lets the
// same shape serve a cache miss's built/generation check, a watch's reply
// and a /stats scrape.
type ShardStatus struct {
	// BootID is the hosting remote.Server's instance nonce (0 in-process):
	// it changes when the worker process restarts, and since workers boot
	// empty a change after recorded ingest progress means the shard's slice
	// of the corpus is gone.
	BootID uint64
	// Addr is the worker address, stamped by Client ("" in-process) — also
	// beside an error, so an unreachable worker can still be named.
	Addr string
	// Gen is the shard's mutation generation.
	Gen uint64
	// Built reports whether the shard is empty or has built its index.
	Built bool
	// Entities is the indexed patch-vector count and Ingest the ingest
	// statistics.
	Entities int
	Ingest   core.IngestStats
	// Segments is the shard's segment breakdown; the zero value
	// (Growing == 0) for a batch store.
	Segments vectordb.SegmentStats
	// Config digests the shard's resolved configuration.
	Config ConfigSummary
}

// Stamp is the part of a ShardStatus a watch compares: which server
// instance answered, how far its corpus has moved, and whether its index is
// built. A cached answer is valid exactly as long as every shard's Stamp
// holds still (restarts aside, which the boot nonce exposes).
type Stamp struct {
	BootID uint64
	Gen    uint64
	Built  bool
}

// Stamp returns the status's watch stamp.
func (st ShardStatus) Stamp() Stamp {
	return Stamp{BootID: st.BootID, Gen: st.Gen, Built: st.Built}
}

// Unseen is a since stamp no shard ever reports (no generation reaches
// 2^64-1): a watch that passes it is answered at once, on the watch
// connection.
var Unseen = Stamp{Gen: math.MaxUint64}

// ShardBackend is one shard of a scatter-gather engine: the stage surface
// Engine composes, whether the shard lives in-process (shard.Local) or on
// another host (Client). Every method is safe for concurrent use.
type ShardBackend interface {
	// IngestVideos ingests videos in order, so the shard's state is
	// byte-identical to ingesting them one by one. Mutating: dispatched at
	// most once over the wire.
	IngestVideos(vs []*video.Video) error
	// BuildIndex builds (or, on a segmented store, seals) the shard's index.
	BuildIndex() error
	// FastSearchBatch runs stage 1 against the shard's slice of the corpus
	// for each (text, plan) pair under the plan's leg knobs (ShardK depth,
	// Exact/NProbe/Ef effort), returning one local top-ShardK hit list
	// per query in canonical order. The context carries the query's
	// tracing recorder (see internal/obs): a remote backend ships the trace
	// id over the wire and grafts the worker's exported spans back into the
	// caller's trace; tracing never changes the hits.
	FastSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][]core.ResultObject, error)
	// GroundCandidates runs stage 2 over the candidate frames this shard
	// owns; groundings align with refs. Context as on FastSearchBatch.
	GroundCandidates(ctx context.Context, text string, refs []core.FrameRef, workers int) ([]core.Grounding, error)
	// Status snapshots the shard's identity, generation, health and
	// statistics. An error means the shard is unreachable. A nil since
	// answers at once. A non-nil since is a watch: it answers as soon as
	// the shard's Stamp differs from *since, or after Heartbeat when it
	// does not.
	Status(since *Stamp) (ShardStatus, error)
	// SaveSnapshot serialises the shard's full system state.
	SaveSnapshot() ([]byte, error)
	// LoadSnapshot restores a SaveSnapshot payload into this
	// freshly-constructed shard.
	LoadSnapshot(data []byte) error
	// Close releases client-side resources (no-op for in-process shards).
	Close() error
}
