// Package shard implements LOVO's horizontal scaling tier: a scatter-gather
// engine over N independent shards partitioned by video ID, each shard one
// core.System — hosted in-process (Local) or on another host behind the RPC
// boundary (remote.Client).
//
// LOVO's one-time, query-agnostic extraction makes the corpus trivially
// partitionable — a video's keyframes, patch vectors and relational rows
// never reference another video — so each shard runs the full single-system
// pipeline over its slice of the corpus. Queries scatter both stages:
// stage-1 fast search runs on every shard and the per-shard hit lists merge
// into the global top-fastK (descending score, ascending patch ID — the
// same canonical order every index kind produces), and stage-2 rerank
// candidates route back to the shard owning each keyframe. Because the
// engine runs the same shared executor (core.ExecutePlanBatch) a core.System
// runs, a one-shard engine answers byte-identically to the single system, and
// an N-shard engine under exact search differs only in index approximation,
// not in merge logic. The same holds whether a shard answers from this
// process or over the wire — the conformance suite in internal/remote pins
// remote answers bit-identical to local ones.
//
// Every patch is stored once, under its shard's one index. The coordinator
// retries transport faults to a remote shard on fresh connections, and a
// shard that stays unreachable or errors fails the query cleanly — a
// partial merge is never returned.
package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// Engine is a sharded LOVO deployment: N shard backends behind one
// scatter-gather query path. All methods are safe for concurrent use;
// queries may run while ingest continues, exactly as on a single system.
type Engine struct {
	backends []remote.ShardBackend
	cfg      core.Config // defaults resolved
	// lastGen, bootID and stateLost are the engine's durable per-backend
	// record, maintained by observe on every status read: the highest
	// generation each backend reported, its server-instance nonce (0 = not
	// yet learned, or in-process), and whether its worker was seen to
	// restart empty. A state-lost backend stays marked until a snapshot
	// restore (LoadSnapshot clears the record) or a coordinator reboot.
	lastGen   []atomic.Uint64
	bootID    []atomic.Uint64
	stateLost []atomic.Bool

	// The watch state behind Pushed, per backend: epoch counts the starts
	// and ends of the mutations this engine issues to the backend, pending
	// counts the ones in flight, and views holds the backend's last pushed
	// view (nil while its watch is down).
	epoch   []atomic.Uint64
	pending []atomic.Int64
	views   []atomic.Pointer[view]
	// watchOnce starts the watchers on the first Pushed; watchers counts
	// them. watchMu guards closed and is idle's lock: idle is broadcast
	// when a mutation ends and when the engine closes, and stop is closed
	// with it.
	watchOnce sync.Once
	watchers  sync.WaitGroup
	watchMu   sync.Mutex
	idle      *sync.Cond
	closed    bool
	stop      chan struct{}
}

// view is what one backend's watch last pushed: its stamp, this engine's
// mutation epoch for the backend when the watch request went out, and when
// the reply arrived.
type view struct {
	stamp remote.Stamp
	epoch uint64
	at    time.Time
}

// viewTTL is how long a pushed view stays live without another reply. A
// live worker answers every watch within remote.Heartbeat; past that plus
// a dial's grace its silence means it is dead or cut off.
const viewTTL = remote.Heartbeat + remote.DefaultDialTimeout

// New constructs an engine with n in-process shards, each one core.System
// built from cfg. Equal seeds mean every system encodes identically: a
// keyframe grounds to the same score regardless of which shard owns it.
func New(n int, cfg core.Config) (*Engine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	backends := make([]remote.ShardBackend, n)
	for i := range backends {
		l, err := NewLocal(1, cfg)
		if err != nil {
			return nil, fmt.Errorf("shard: creating shard %d: %w", i, err)
		}
		backends[i] = l
	}
	return NewWithBackends(backends, cfg)
}

// NewReplicated is New for r = 1 and refuses any other r.
//
// Deprecated: a shard is one core.System — call New. Kept only because
// benchmark/ calls it (ROADMAP item 1).
func NewReplicated(n, r int, cfg core.Config) (*Engine, error) {
	if r != 1 {
		return nil, fmt.Errorf("shard: a shard holds one system, got %d replicas", r)
	}
	return New(n, cfg)
}

// NewWithBackends constructs an engine over an explicit backend set — any
// mix of in-process shards (Local) and remote workers (remote.Client). The
// backends must be freshly constructed (or all restored from the same
// snapshot) and share the coordinator's seed and index configuration; the
// serving tier verifies remote configs at boot via remote.VerifyConfig.
func NewWithBackends(backends []remote.ShardBackend, cfg core.Config) (*Engine, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: need at least 1 backend")
	}
	e := &Engine{
		backends:  backends,
		cfg:       cfg.Resolved(),
		lastGen:   make([]atomic.Uint64, len(backends)),
		bootID:    make([]atomic.Uint64, len(backends)),
		stateLost: make([]atomic.Bool, len(backends)),
		epoch:     make([]atomic.Uint64, len(backends)),
		pending:   make([]atomic.Int64, len(backends)),
		views:     make([]atomic.Pointer[view], len(backends)),
		stop:      make(chan struct{}),
	}
	e.idle = sync.NewCond(&e.watchMu)
	return e, nil
}

// Shards returns the shard (backend) count.
func (e *Engine) Shards() int { return len(e.backends) }

// Backend exposes one shard backend (tests, experiments). An in-process
// shard is a *Local; benchmark/ asserts that (ROADMAP item 1).
func (e *Engine) Backend(i int) remote.ShardBackend { return e.backends[i] }

// owner maps a video ID to its shard: videos partition by ID modulo N.
func (e *Engine) owner(videoID int) int {
	o := videoID % len(e.backends)
	if o < 0 {
		o += len(e.backends)
	}
	return o
}

// Ingest routes one video to its owning shard as a batch of one.
func (e *Engine) Ingest(v *video.Video) error {
	gi := e.owner(v.ID)
	if err := e.mutate(gi, func(b remote.ShardBackend) error { return b.IngestVideos([]*video.Video{v}) }); err != nil {
		return fmt.Errorf("shard %d: %w", gi, err)
	}
	return nil
}

// IngestDataset fans the dataset out across shards in parallel: each shard
// ingests its videos in dataset order, so per-shard state is byte-identical
// to a serial ingest of that shard's slice.
func (e *Engine) IngestDataset(ds *datasets.Dataset) error {
	byShard := make([][]*video.Video, len(e.backends))
	for i := range ds.Videos {
		v := &ds.Videos[i]
		o := e.owner(v.ID)
		byShard[o] = append(byShard[o], v)
	}
	errs := make([]error, len(e.backends))
	core.ParallelFor(len(e.backends), len(e.backends), func(i int) {
		if len(byShard[i]) == 0 {
			return
		}
		if err := e.mutate(i, func(b remote.ShardBackend) error { return b.IngestVideos(byShard[i]) }); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	})
	return firstErr(errs)
}

// BuildIndex builds every shard's index in parallel.
func (e *Engine) BuildIndex() error {
	errs := make([]error, len(e.backends))
	core.ParallelFor(len(e.backends), len(e.backends), func(i int) {
		if err := e.mutate(i, remote.ShardBackend.BuildIndex); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	})
	return firstErr(errs)
}

// engineTarget adapts an Engine to the shared executor's N-leg PlanTarget:
// stage 1 scatters every shard with the same plans, stage 2 routes each
// candidate frame to the shard owning its keyframe and reassembles
// groundings in global candidate order — so the final ranking sees exactly
// what a single system would. Any shard leg that fails (after transport
// retries) fails the whole query: a partial merge is never returned.
type engineTarget struct{ e *Engine }

// ScatterSearchBatch runs stage 1 for the whole batch as one call per shard,
// legs in parallel: an in-process shard answers every query from one
// cache-blocked sweep over its slice, a remote shard in one round trip.
// out[query][shard] holds each query's canonical per-leg hit list.
func (t engineTarget) ScatterSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][][]core.ResultObject, error) {
	e := t.e
	// byShard[shard][query]: scatter first, transpose after the gather.
	byShard := make([][][]core.ResultObject, len(e.backends))
	errs := make([]error, len(e.backends))
	core.ParallelFor(len(e.backends), len(e.backends), func(i int) {
		lctx, lsp := obs.Start(ctx, "stage1.shard")
		if lsp.On() {
			lsp.Detail(fmt.Sprintf("shard=%d queries=%d", i, len(texts)))
		}
		defer lsp.End()
		lists, err := e.backends[i].FastSearchBatch(lctx, texts, plans)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		byShard[i] = lists
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	out := make([][][]core.ResultObject, len(texts))
	for qi := range texts {
		out[qi] = make([][]core.ResultObject, len(e.backends))
		for i := range e.backends {
			out[qi][i] = byShard[i][qi]
		}
	}
	return out, nil
}

func (t engineTarget) ScatterGround(ctx context.Context, text string, refs []core.FrameRef, workers int) ([]core.Grounding, error) {
	e := t.e
	type routed struct {
		refs []core.FrameRef
		pos  []int
	}
	byShard := make([]routed, len(e.backends))
	for pos, ref := range refs {
		o := e.owner(ref.VideoID)
		byShard[o].refs = append(byShard[o].refs, ref)
		byShard[o].pos = append(byShard[o].pos, pos)
	}
	groundings := make([]core.Grounding, len(refs))
	gerrs := make([]error, len(e.backends))
	core.ParallelFor(len(e.backends), len(e.backends), func(i int) {
		if len(byShard[i].refs) == 0 {
			return
		}
		lctx, lsp := obs.Start(ctx, "rerank.shard")
		if lsp.On() {
			lsp.Detail(fmt.Sprintf("shard=%d frames=%d", i, len(byShard[i].refs)))
		}
		gs, err := e.backends[i].GroundCandidates(lctx, text, byShard[i].refs, workers)
		lsp.End()
		if err != nil {
			gerrs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		if len(gs) != len(byShard[i].refs) {
			gerrs[i] = fmt.Errorf("shard %d: %d groundings for %d candidates", i, len(gs), len(byShard[i].refs))
			return
		}
		for j, g := range gs {
			groundings[byShard[i].pos[j]] = g
		}
	})
	if err := firstErr(gerrs); err != nil {
		return nil, err
	}
	return groundings, nil
}

// PlanQueryCtx resolves the plan one query will execute: the pinned plan
// when QueryOptions.Plan is set, and otherwise the fixed default plan —
// what core.System resolves for the same options, so a plan reads the same
// on every deployment shape. It asks no shard anything and never fails;
// the signature is core.Querier's.
func (e *Engine) PlanQueryCtx(_ context.Context, _ string, opts core.QueryOptions) (core.Plan, error) {
	if opts.Plan != nil {
		return e.cfg.NormalizePlan(*opts.Plan), nil
	}
	return e.cfg.FixedPlan(opts), nil
}

// QueryPlanned executes one explicit plan.
//
// Deprecated: a lone query is a batch of one — call QueryBatchPlanned (or
// core.Query with the plan pinned). Kept only because benchmark/ calls it.
func (e *Engine) QueryPlanned(ctx context.Context, text string, plan core.Plan, workers int) (*core.Result, error) {
	return core.Query(ctx, e, text, core.QueryOptions{Plan: &plan, Workers: workers})
}

// QueryBatchPlanned executes one pre-resolved plan per query through the
// shared executor (core.ExecutePlanBatch) — the same stage composition a
// core.System runs, scattered across shards, so equal plans answer
// byte-identically on every deployment shape, whichever hosts served. Stage 1 for the whole batch scatters as ONE call per
// shard, so an in-process shard amortizes one memory sweep over every query
// of the batch; stage 2 fans out per query across at most clients
// goroutines. The context carries the tracing recorder (see internal/obs):
// a traced caller sees both scattered stages down to per-shard legs and
// remote-worker spans; an untraced context runs the
// allocation-free disabled path.
func (e *Engine) QueryBatchPlanned(ctx context.Context, texts []string, plans []core.Plan, workers, clients int) ([]*core.Result, error) {
	return core.ExecutePlanBatch(ctx, engineTarget{e}, e.cfg, texts, plans, workers, clients)
}

// BackendStat is the coordinator's view of one shard backend, surfaced by
// the serving tier's /stats, /healthz and /metrics.
type BackendStat struct {
	// Kind is "local" for in-process shards, "remote" for RPC workers.
	Kind string `json:"kind"`
	// Addr is the worker address (remote shards only).
	Addr string `json:"addr,omitempty"`
	// Healthy reports the shard answered its status read and still holds
	// the corpus this engine fed it.
	Healthy bool `json:"healthy"`
	// Error carries the reason when unhealthy.
	Error string `json:"error,omitempty"`
}

// Status is the engine's one consistent view of itself: every field folds
// the same scatter of ShardBackend.Status reads, one per shard, so the
// serving tier's built/generation check on a cache miss and a full /stats
// scrape both cost one metadata read per shard and describe one moment (a
// request served wholly from the cache reads Pushed instead).
type Status struct {
	// Gen sums each shard's mutation generation: any ingest or index build
	// anywhere advances it, which is all a result cache needs. An
	// unreachable shard contributes its last reported generation, so Gen
	// holds steady — rather than wobbling cache validity — while a worker
	// is down.
	Gen uint64
	// Built reports whether every shard has built its index. An unreachable
	// or state-lost shard makes it false — the engine cannot serve complete
	// answers without it.
	Built bool
	// Entities and Ingest total the reachable shards. Ingest's duration
	// fields sum too, so they report aggregate shard-time, not wall-clock.
	Entities int
	Ingest   core.IngestStats
	// Backends is per-shard kind, address and health.
	Backends []BackendStat
	// Segments sums the segment breakdown across reachable segmented
	// shards, so Sealed/Building/Growing/GrowingLen are fleet-wide totals;
	// the zero value (Growing == 0) for a batch fleet (or one whose every
	// segmented worker is unreachable).
	Segments vectordb.SegmentStats
}

// Status reads every shard's snapshot in parallel — the engine's only
// metadata scatter — and folds them.
func (e *Engine) Status() Status {
	n := len(e.backends)
	shards := make([]remote.ShardStatus, n)
	out := Status{
		Built:    true,
		Backends: make([]BackendStat, n),
	}
	core.ParallelFor(n, n, func(i int) {
		st, err := e.backends[i].Status(nil)
		out.Backends[i] = e.observe(i, &st, err)
		shards[i] = st
	})
	for i := range shards {
		st := &shards[i]
		out.Gen += st.Gen
		out.Built = out.Built && st.Built
		out.Entities += st.Entities
		out.Ingest.Videos += st.Ingest.Videos
		out.Ingest.Frames += st.Ingest.Frames
		out.Ingest.Keyframes += st.Ingest.Keyframes
		out.Ingest.Tokens += st.Ingest.Tokens
		out.Ingest.Processing += st.Ingest.Processing
		out.Ingest.Indexing += st.Ingest.Indexing
		if seg := st.Segments; seg.Growing > 0 {
			agg := &out.Segments
			agg.Sealed += seg.Sealed
			agg.Building += seg.Building
			agg.Growing += seg.Growing
			agg.GrowingLen += seg.GrowingLen
			agg.SealedVectors += seg.SealedVectors
			agg.RawBytes += seg.RawBytes
			agg.IndexBytes += seg.IndexBytes
			agg.Seals += seg.Seals
			agg.Compactions += seg.Compactions
		}
	}
	return out
}

// observe folds one backend's status read into the engine's durable view
// and normalises the snapshot for the fold. An unreachable backend keeps
// its address and contributes its last-known generation and nothing else.
// A reachable one advances the monotonic generation record — and is marked
// state-lost when its worker restarted empty after this engine recorded
// ingest progress on it: the boot nonce changed, or the generation
// regressed to zero (a live system's generation never decreases; benign
// interleavings under concurrent ingest deliver slightly stale non-zero
// reads, which the monotonic max absorbs without false alarms). Such a
// worker would answer — with zero hits — and silently drop its slice from
// every merge, so it reports unbuilt and unhealthy.
func (e *Engine) observe(i int, st *remote.ShardStatus, err error) BackendStat {
	bs := BackendStat{Kind: "local", Addr: st.Addr, Healthy: true}
	if st.Addr != "" {
		bs.Kind = "remote"
	}
	last := e.lastGen[i].Load()
	if err != nil {
		*st = remote.ShardStatus{Addr: st.Addr, Gen: last}
		bs.Healthy, bs.Error = false, err.Error()
	} else {
		if prev := e.bootID[i].Swap(st.BootID); last > 0 && (st.Gen == 0 || (prev != 0 && prev != st.BootID)) {
			e.stateLost[i].Store(true)
		}
		for last < st.Gen && !e.lastGen[i].CompareAndSwap(last, st.Gen) {
			last = e.lastGen[i].Load()
		}
	}
	if e.stateLost[i].Load() {
		st.Built = false
		bs.Healthy = false
		bs.Error = "shard state lost (worker restarted empty): restore a snapshot or reboot the coordinator to re-ingest"
	}
	return bs
}

// mutate runs one mutation on backend i, bracketed for Pushed: from its
// start until a watch request sent after its end is answered, hits on this
// engine read status synchronously, so they always see what it wrote.
func (e *Engine) mutate(i int, fn func(remote.ShardBackend) error) error {
	e.pending[i].Add(1)
	e.epoch[i].Add(1)
	defer func() {
		e.epoch[i].Add(1)
		e.pending[i].Add(-1)
		e.watchMu.Lock()
		e.idle.Broadcast()
		e.watchMu.Unlock()
	}()
	return fn(e.backends[i])
}

// Pushed is the serving tier's cache-hit read: the fleet's generation and
// built flag as the backends' watches last pushed them, costing no request
// to any backend. ok is false — read Status instead — unless every
// backend's view is fresh:
//
//   - its watch replied within viewTTL and has not failed since;
//   - no mutation this engine issued to the backend is in flight, and the
//     watch request behind the view went out after the last one ended
//     (read-your-writes);
//   - it carries the boot nonce the last Status recorded, on a backend not
//     marked state-lost — a restart is for Status to judge.
//
// A write through another coordinator reaches the view as fast as the
// worker's push; a blackholed worker keeps its view at most viewTTL. The
// first call starts one watcher per backend; Close stops them.
func (e *Engine) Pushed() (gen uint64, built, ok bool) {
	e.watchOnce.Do(e.startWatchers)
	//lovo:nondeterministic-ok view liveness; a clock value never reaches an answer
	now := time.Now()
	built = true
	for i := range e.backends {
		v := e.views[i].Load()
		if v == nil || now.Sub(v.at) > viewTTL || v.epoch != e.epoch[i].Load() || e.pending[i].Load() != 0 ||
			v.stamp.BootID != e.bootID[i].Load() || e.stateLost[i].Load() {
			return 0, false, false
		}
		gen += v.stamp.Gen
		built = built && v.stamp.Built
	}
	return gen, built, true
}

func (e *Engine) startWatchers() {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	if e.closed {
		return
	}
	for i := range e.backends {
		e.watchers.Add(1)
		go e.watch(i)
	}
}

// watch is backend i's watcher: a long poll on the backend's stamp, each
// reply published as its view. A view that is not current — none yet, or
// one whose request predates a mutation — is refreshed with remote.Unseen,
// which the backend answers at once; while a mutation is in flight the
// watcher waits it out rather than poll a moving target. A failed watch
// drops the view and retries — at once after a success, so a dropped
// connection costs one redial, and a heartbeat apart while the backend
// stays unreachable.
func (e *Engine) watch(i int) {
	defer e.watchers.Done()
	failing := false
	for e.awaitIdle(i) {
		ep := e.epoch[i].Load()
		since := remote.Unseen
		if v := e.views[i].Load(); v != nil && v.epoch == ep {
			since = v.stamp
		}
		st, err := e.backends[i].Status(&since)
		if err != nil {
			e.views[i].Store(nil)
			if failing {
				select {
				case <-e.stop:
					return
				case <-time.After(remote.Heartbeat):
				}
			}
			failing = true
			continue
		}
		failing = false
		//lovo:nondeterministic-ok view liveness; a clock value never reaches an answer
		e.views[i].Store(&view{stamp: st.Stamp(), epoch: ep, at: time.Now()})
	}
}

// awaitIdle blocks while a mutation this engine issued to backend i is in
// flight; false once the engine is closed.
func (e *Engine) awaitIdle(i int) bool {
	e.watchMu.Lock()
	defer e.watchMu.Unlock()
	for !e.closed && e.pending[i].Load() != 0 {
		e.idle.Wait()
	}
	return !e.closed
}

// Entities returns the total indexed patch vectors across reachable shards.
func (e *Engine) Entities() int { return e.Status().Entities }

// Close stops the watchers, drops their views and releases every backend's
// resources (remote connection pools and watch connections, in-process
// shards' held watches).
func (e *Engine) Close() error {
	e.watchMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.stop)
		e.idle.Broadcast()
	}
	e.watchMu.Unlock()
	var first error
	for _, b := range e.backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.watchers.Wait()
	for i := range e.views {
		e.views[i].Store(nil)
	}
	return first
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot format: magic, shard count, then each shard's system snapshot
// in shard order, length-prefixed (uint64) — the per-system loader reads
// through buffered decoders that may consume past their own section, so
// each shard gets a bounded segment of the stream. The format predates
// remote shards and is unchanged: segments simply travel over RPC when a
// shard is remote.
const snapMagic = "LOVOSHD1\n"

// SaveSnapshot persists every shard's state. Must not run concurrently
// with ingest or index builds.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(e.backends))); err != nil {
		return err
	}
	for i, b := range e.backends {
		seg, err := b.SaveSnapshot()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(seg))); err != nil {
			return err
		}
		if _, err := w.Write(seg); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshot restores a snapshot written by SaveSnapshot into this
// freshly-constructed engine, one segment per shard. The shard count and
// Config must match the saver's.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return fmt.Errorf("shard: reading snapshot magic: %w", err)
	}
	if string(head) != snapMagic {
		return fmt.Errorf("shard: bad snapshot magic %q", head)
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if int(n) != len(e.backends) {
		return fmt.Errorf("shard: snapshot has %d shards, engine has %d", n, len(e.backends))
	}
	for i := range e.backends {
		var size uint64
		if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
			return fmt.Errorf("shard %d: reading snapshot size: %w", i, err)
		}
		// The segment grows as its bytes arrive, so a corrupt or hostile size
		// costs what the stream holds, never what it declares (one past
		// MaxInt64 reads as empty, which the shard's own loader refuses).
		var seg bytes.Buffer
		if _, err := io.CopyN(&seg, r, int64(size)); err != nil {
			return fmt.Errorf("shard %d: reading %d-byte snapshot segment: %w", i, size, err)
		}
		if err := e.mutate(i, func(b remote.ShardBackend) error { return b.LoadSnapshot(seg.Bytes()) }); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// A successful restore is the recovery path for a state-lost worker:
	// every backend now holds its slice again, so clear the marks and
	// re-learn generations and boot identities from scratch.
	for i := range e.backends {
		e.stateLost[i].Store(false)
		e.lastGen[i].Store(0)
		e.bootID[i].Store(0)
	}
	return nil
}
