// Package core implements LOVO itself: the three modules of Section III
// wired together over the substrate packages.
//
//   - Video Summary (Section IV): keyframe extraction, patch encoding with
//     the decoupled vision encoder, box and class heads, and vector
//     collection construction.
//   - Database Storage (Section V): class embeddings in the vector database
//     under a product-quantized inverted multi-index, with bounding boxes
//     and frame identifiers in the relational side-store joined by patch ID.
//   - Query Strategy (Section VI, Algorithm 2): top-k fast search over the
//     index with the whole-sentence query embedding, then cross-modality
//     rerank of the candidate frames.
//
// The orthogonal knobs the paper calls out — keyframe strategy, index kind,
// rerank on/off, exhaustive search — are all Config/QueryOptions fields, so
// every ablation of Table IV and every ANN variant of Table V runs through
// this one type.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/embed"
	"repro/internal/keyframe"
	"repro/internal/mat"
	"repro/internal/vectordb"
	"repro/internal/video"
	"repro/internal/vit"
	"repro/internal/xmodal"
)

// Field widths of the packed patch ID. Exceeding any of them would silently
// corrupt the join key shared by the vector store and the patch table, so
// PackPatchID refuses out-of-range coordinates.
const (
	MaxVideoID  = 1<<16 - 1 // 16-bit video field
	MaxFrameIdx = 1<<28 - 1 // 28-bit frame field
	MaxPatch    = 1<<12 - 1 // 12-bit patch field
)

// PackPatchID encodes (video, frame, patch) into the shared join key linking
// the vector database to the patch table: 16 bits of video, 28 of
// frame, 12 of patch. Coordinates outside those field widths would alias
// other patches' keys, so it panics on out-of-range input; Ingest validates
// video data up front and returns an error before reaching this point.
func PackPatchID(videoID, frameIdx, patch int) int64 {
	if videoID < 0 || videoID > MaxVideoID ||
		frameIdx < 0 || frameIdx > MaxFrameIdx ||
		patch < 0 || patch > MaxPatch {
		panic(fmt.Sprintf(
			"core: patch ID out of range: video %d (0..%d), frame %d (0..%d), patch %d (0..%d)",
			videoID, MaxVideoID, frameIdx, MaxFrameIdx, patch, MaxPatch))
	}
	return int64(videoID)<<40 | int64(frameIdx)<<12 | int64(patch)
}

// UnpackPatchID reverses PackPatchID.
func UnpackPatchID(id int64) (videoID, frameIdx, patch int) {
	return int(id >> 40), int(id >> 12 & 0xfffffff), int(id & 0xfff)
}

// Config parameterises a LOVO system. Zero values select the defaults used
// throughout the evaluation.
type Config struct {
	// Dim is the vision/text embedding dimension D (default 64).
	Dim int
	// ProjDim is the indexed class-embedding dimension D′ (default 32).
	ProjDim int
	// Seed drives every stochastic component.
	Seed uint64
	// Keyframe is the extraction strategy (default keyframe.MVMed).
	Keyframe keyframe.Strategy
	// GridW, GridH give the ViT patch grid (default 16×9).
	GridW, GridH int
	// Index is the vector index kind (default vectordb.IndexIMI).
	Index vectordb.IndexKind
	// IndexOptions tune the index build; zero fields use defaults.
	IndexOptions vectordb.IndexOptions
	// FastK is the fast-search candidate count k (default 100).
	FastK int
	// TopN is the number of reranked frames returned (default 10).
	TopN int
	// RerankFrames bounds the candidate frames stage 2 examines
	// (default 16); the paper's rerank similarly operates on a small
	// candidate subset so its cost stays independent of dataset size.
	RerankFrames int
	// NProbe is the per-subspace cluster count A probed by Algorithm 1
	// (default 16).
	NProbe int
	// Ef is the HNSW search beam (default 64).
	Ef int
	// Rerank configures the cross-modality transformer.
	Rerank xmodal.Config
	// Deprecated: ignored — the store is segmented iff SegmentSize > 0;
	// remains only because benchmark/ names it — removed with ROADMAP item
	// 1. New refuses it set without a positive SegmentSize, so a stale
	// caller cannot silently get a batch store.
	Streaming bool
	// SegmentSize is the store's seal threshold. Zero never seals by size:
	// BuildIndex rebuilds everything ingested into one segment under one
	// index — the paper's design — and vectors ingested after a build are
	// exact-scanned until the next BuildIndex. N > 0 gives segmented
	// incremental indexing (the paper's Section IX future work): inserts
	// accumulate in a growing segment that is sealed every N vectors and
	// indexed in isolation, so continuous video updates never trigger full
	// index rebuilds, and BuildIndex seals the current segment instead of
	// rebuilding. Negative is an error.
	SegmentSize int
	// Workers bounds the goroutines the concurrent execution engine uses
	// for keyframe encoding during Ingest and for the stage-2 rerank
	// fan-out. Zero means runtime.NumCPU(); 1 forces the serial paths.
	// Results are byte-identical at every setting.
	Workers int
	// PlannerValidateEvery is the planner's validation cadence: every Nth
	// adaptive plan is measured inline against exact-search ground truth
	// and the safety margin adapted from the error (default 64; negative
	// disables validation).
	PlannerValidateEvery int
}

func (c Config) withDefaults() Config {
	if c.Dim == 0 {
		c.Dim = 64
	}
	if c.ProjDim == 0 {
		c.ProjDim = 32
	}
	if c.Keyframe == nil {
		c.Keyframe = keyframe.MVMed{}
	}
	if c.GridW == 0 {
		c.GridW = 16
	}
	if c.GridH == 0 {
		c.GridH = 9
	}
	if c.Index == "" {
		c.Index = vectordb.IndexIMI
	}
	if c.IndexOptions.P == 0 {
		c.IndexOptions.P = 4
	}
	if c.IndexOptions.M == 0 {
		c.IndexOptions.M = 64
	}
	if c.IndexOptions.M0 == 0 {
		c.IndexOptions.M0 = 16
	}
	if c.IndexOptions.Seed == 0 {
		c.IndexOptions.Seed = c.Seed ^ 0x1d8
	}
	if c.FastK == 0 {
		c.FastK = 100
	}
	if c.TopN == 0 {
		c.TopN = 10
	}
	if c.RerankFrames == 0 {
		c.RerankFrames = 16
	}
	if c.NProbe == 0 {
		c.NProbe = 16
	}
	if c.Ef == 0 {
		c.Ef = 64
	}
	if c.Rerank.Seed == 0 {
		c.Rerank.Seed = c.Seed ^ 0x2e2a
	}
	if c.PlannerValidateEvery == 0 {
		c.PlannerValidateEvery = 64
	}
	return c
}

// Resolved returns the configuration with every zero field replaced by its
// default — the values New would run with. A coordinator with no in-process
// system uses it to mirror the workers' FastK/TopN/RerankFrames exactly.
func (c Config) Resolved() Config { return c.withDefaults() }

type frameKey struct {
	video int
	frame int
}

// System is a running LOVO instance.
type System struct {
	cfg    Config
	space  *embed.Space
	vision *embed.VisionEncoder
	text   *embed.TextEncoder
	enc    *QueryEncoder // query texts into the fast-search space, over space and text
	vitCfg vit.Config
	model  *xmodal.Model

	store   *vectordb.SegmentedCollection // sealing every SegmentSize vectors
	patches patchTable

	// mu guards the mutable system state below. The substrate stores
	// (vector store, patch table, embedding space) carry their
	// own locks, so queries may run concurrently with ingest: Query takes
	// read locks only, Ingest and BuildIndex take the write lock briefly
	// around state mutation — never across encoding or index builds.
	mu sync.RWMutex

	// keyframes retains the scene description of every indexed keyframe;
	// the rerank stage re-examines these, as the paper's rerank reloads
	// keyframe images from storage.
	keyframes map[frameKey]*video.Frame

	stats IngestStats
	built bool

	// planner accumulates selectivity samples at ingest and calibrates
	// index effort lazily; it resolves accuracy-bounded queries into
	// concrete plans.
	planner *planner

	// ingestGen counts completed mutations (Ingest, BuildIndex, snapshot
	// loads). Serving tiers use it to invalidate query-result caches: a
	// cached answer is valid only while the generation it was computed
	// under still matches.
	ingestGen atomic.Uint64
}

// IngestStats accumulates Video Summary metrics.
type IngestStats struct {
	// Videos, Frames, Keyframes and Tokens count processed units.
	Videos, Frames, Keyframes, Tokens int
	// Processing is the video-summary time (keyframes + encoding).
	Processing time.Duration
	// Indexing is the index construction time.
	Indexing time.Duration
}

// New constructs a LOVO system.
func New(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.SegmentSize < 0 {
		return nil, fmt.Errorf("core: SegmentSize %d is negative (0 = one segment, never sealed by size; N > 0 = sealed every N vectors)", cfg.SegmentSize)
	}
	// Refused here, not at a build: a segmented store's seals would retry it forever.
	kind, err := vectordb.ParseKind(string(cfg.Index))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg.Index = kind
	if cfg.Streaming && cfg.SegmentSize == 0 {
		return nil, fmt.Errorf("core: Streaming is ignored and SegmentSize is 0, which selects a batch store; set SegmentSize > 0 for a segmented one")
	}
	if patches := cfg.GridW * cfg.GridH; patches > vit.MaxGridPatches {
		return nil, fmt.Errorf("core: %dx%d patch grid (%d patches) exceeds the %d-patch budget of the packed patch ID",
			cfg.GridW, cfg.GridH, patches, vit.MaxGridPatches)
	}
	space := embed.NewSpace(cfg.Dim, cfg.ProjDim, cfg.Seed^0x5bace)
	s := &System{
		cfg:    cfg,
		space:  space,
		vision: &embed.VisionEncoder{Space: space, Seed: cfg.Seed ^ 0x115},
		text:   &embed.TextEncoder{Space: space},
		model:  xmodal.New(space, cfg.Rerank),

		patches:   patchTable{rows: make(map[int64]patchRow)},
		keyframes: make(map[frameKey]*video.Frame),
	}
	s.enc = &QueryEncoder{space: space, text: s.text}
	s.planner = newPlanner(cfg, s.enc)
	s.vitCfg = vit.Config{GridW: cfg.GridW, GridH: cfg.GridH, Encoder: s.vision}
	s.store, err = vectordb.NewSegmented("patches",
		vectordb.Schema{Dim: cfg.ProjDim, Normalize: true},
		cfg.Index, cfg.IndexOptions, cfg.SegmentSize)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Ingest runs Video Summary over one video: keyframe extraction, patch
// encoding, and vector-collection construction. Call BuildIndex after the
// last video (or keep ingesting — post-build inserts are searchable at
// once, from the growing segment; see Config.SegmentSize).
//
// Keyframe encoding — the ViT forward pass that dominates one-time video
// processing — fans out across cfg.Workers goroutines; the stores are then
// written in keyframe order on the calling goroutine, so the stored state is
// byte-identical to a serial ingest. A video whose patch IDs are already
// stored is refused with vectordb.ErrDuplicate before anything changes.
// Ingest is safe to call while other goroutines run Query.
func (s *System) Ingest(v *video.Video) error {
	if v.ID < 0 || v.ID > MaxVideoID {
		return fmt.Errorf("core: video ID %d outside the %d-bit patch-ID field (0..%d)", v.ID, 16, MaxVideoID)
	}
	//lovo:nondeterministic-ok stats.Processing is ingest-cost bookkeeping; stored rows and vectors never depend on it
	start := time.Now()
	keys := s.cfg.Keyframe.Select(v)
	for _, fi := range keys {
		if idx := v.Frames[fi].Index; idx < 0 || idx > MaxFrameIdx {
			return fmt.Errorf("core: frame index %d outside the %d-bit patch-ID field (0..%d)", idx, 28, MaxFrameIdx)
		}
	}

	// Stage 1 (parallel): encode every selected keyframe.
	encoded := make([][]vit.Token, len(keys))
	ParallelFor(len(keys), ResolveWorkers(s.cfg.Workers), func(i int) {
		encoded[i] = vit.EncodeFrame(s.vitCfg, &v.Frames[keys[i]])
	})

	// Stage 2 (serial, deterministic order): route tokens to the stores.
	// The video's metadata rows go in first, all or none, so a duplicate
	// video is refused before anything else changes. A vector becomes
	// searchable the moment it enters the collection, so everything a
	// concurrent Query dereferences for a hit — the keyframe and the row
	// behind the metadata join — is committed before the vector itself.
	n := 0
	for _, toks := range encoded {
		n += len(toks)
	}
	rows := make([]patchRow, 0, n)
	for i, fi := range keys {
		f := &v.Frames[fi]
		for _, tok := range encoded[i] {
			rows = append(rows, patchRow{
				PatchID: PackPatchID(v.ID, f.Index, tok.Patch),
				VideoID: int64(v.ID), FrameIdx: int64(f.Index), Patch: int64(tok.Patch),
				X: tok.Box.X, Y: tok.Box.Y, W: tok.Box.W, H: tok.Box.H,
				Objectness: float64(tok.Objectness),
			})
		}
	}
	if err := s.patches.insert(rows); err != nil {
		return err
	}
	for i, fi := range keys {
		f := &v.Frames[fi]
		fc := *f
		s.mu.Lock()
		s.keyframes[frameKey{v.ID, f.Index}] = &fc
		s.stats.Keyframes++
		s.mu.Unlock()
		s.planner.noteFrame(&fc)
		for _, tok := range encoded[i] {
			if err := s.store.Insert(rows[0].PatchID, tok.Class); err != nil {
				return fmt.Errorf("core: inserting patch vector: %w", err)
			}
			rows = rows[1:]
			s.planner.observe(tok.Class)
		}
		s.mu.Lock()
		s.stats.Tokens += len(encoded[i])
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.stats.Videos++
	s.stats.Frames += len(v.Frames)
	//lovo:nondeterministic-ok stats.Processing is ingest-cost bookkeeping; stored rows and vectors never depend on it
	s.stats.Processing += time.Since(start)
	s.mu.Unlock()
	s.ingestGen.Add(1)
	return nil
}

// BuildIndex seals the growing segment and indexes it. With SegmentSize 0
// that rebuilds everything ingested so far into one segment under one
// index; with SegmentSize > 0 sealed segments are never rebuilt.
func (s *System) BuildIndex() error {
	//lovo:nondeterministic-ok stats.Indexing is build-cost bookkeeping; the built index never depends on it
	start := time.Now()
	// Seal queues a background build; BuildIndex is the explicit batch boot
	// path, so wait for the maintenance worker to quiesce — the caller
	// expects a fully indexed system (and a deterministic one: approximate
	// answers after BuildIndex must not depend on build timing).
	err := s.store.Seal()
	if err == nil {
		err = s.store.WaitMaintenance()
	}
	if err != nil {
		return fmt.Errorf("core: building %s index: %w", s.cfg.Index, err)
	}
	s.mu.Lock()
	//lovo:nondeterministic-ok stats.Indexing is build-cost bookkeeping; the built index never depends on it
	s.stats.Indexing += time.Since(start)
	s.built = true
	s.mu.Unlock()
	s.ingestGen.Add(1)
	return nil
}

// IngestGen returns the mutation generation: it increments on every
// completed Ingest, BuildIndex and LoadSnapshot. Cached query results are
// valid only while the generation is unchanged.
func (s *System) IngestGen() uint64 { return s.ingestGen.Load() }

// Config returns the system configuration with defaults resolved — the
// authoritative FastK/TopN/RerankFrames values a scatter-gather engine
// needs to mirror the single-system query path exactly.
func (s *System) Config() Config { return s.cfg }

// Built reports whether BuildIndex has completed at least once.
func (s *System) Built() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.built
}

// searchVectorsBatch runs fast search against the store for many queries
// sharing one (k, params) shape — a lone query is a batch of one — so the
// whole group shares one cache-blocked memory sweep per segment. Results
// align with qs.
func (s *System) searchVectorsBatch(qs []mat.Vec, k int, p ann.Params) ([][]mat.Scored, error) {
	return s.Segmented().SearchBatch(qs, k, p)
}

// Entities returns the number of indexed patch vectors.
func (s *System) Entities() int { return s.Segmented().Len() }

// Segmented exposes the vector store. It is read under the lock so
// LoadSnapshot's store swap cannot race a concurrent reader.
func (s *System) Segmented() *vectordb.SegmentedCollection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}

// SegmentStats reports the per-state segment breakdown of the store; ok is
// false when SegmentSize is 0, where the store keeps one segment and
// operators see no segment state.
func (s *System) SegmentStats() (vectordb.SegmentStats, bool) {
	if s.cfg.SegmentSize == 0 {
		return vectordb.SegmentStats{}, false
	}
	return s.Segmented().SegmentStats(), true
}

// MaintLog returns the store's recent maintenance operations (seal builds,
// compactions) with their obs span trees.
func (s *System) MaintLog() []vectordb.MaintEvent { return s.Segmented().MaintLog() }

// Stats returns a snapshot of the accumulated ingest statistics.
func (s *System) Stats() IngestStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Collection returns nil: the store is Segmented() whatever SegmentSize is.
//
// Deprecated: remains only because benchmark/ names it (behind a
// Segmented() == nil test or a nil check) — removed with ROADMAP item 1.
func (s *System) Collection() *vectordb.Collection { return nil }

// Keyframe returns the retained keyframe for (video, frame), if indexed.
// The frame is stored once at ingest and never mutated, so sharing the
// pointer across goroutines is safe.
func (s *System) Keyframe(videoID, frameIdx int) (*video.Frame, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.keyframes[frameKey{videoID, frameIdx}]
	return f, ok
}
