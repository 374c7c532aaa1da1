package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/video"
)

// ErrAllReplicasDown marks a request that found no healthy replica in some
// shard: every copy of that slice of the corpus has been marked failed, so
// the shard cannot answer. As long as one replica survives, requests keep
// answering — byte-identically, because replicas are built from equal seeds
// and equal ingest order.
var ErrAllReplicasDown = errors.New("shard: every replica of a group is down")

// ReplicaStat is the observable state of one replica, surfaced by the
// serving tier's /stats and /metrics. It is an alias of the wire type so
// remote workers report the same shape without an import cycle.
type ReplicaStat = remote.ReplicaStat

// replicaState is the routing-side view of one replica: health, demand and
// a read counter. Failure is a routing property, not a data property — a
// failed replica still receives ingest fan-out so a later Revive serves the
// same corpus as its peers.
type replicaState struct {
	// failed removes the replica from query routing (set on the first
	// query error, or manually via Engine.FailReplica).
	failed atomic.Bool
	// inflight counts requests currently executing on the replica; the
	// picker prefers the least-loaded healthy replica.
	inflight atomic.Int64
	// reads counts requests ever routed to the replica (stage-1 and
	// stage-2 scatter legs both count).
	reads atomic.Uint64
}

// Local is one in-process shard: a replica group of R byte-identical
// core.Systems (equal seeds, equal ingest order) behind a health-aware
// picker. It implements remote.ShardBackend, so an Engine composes it
// interchangeably with remote.Client shards, and cmd/lovoshard hosts one
// behind a remote.Server. Any healthy replica answers any request for the
// shard's slice of the corpus with the exact bytes every other replica
// would produce, which is what makes failover transparent.
type Local struct {
	replicas []*core.System
	state    []replicaState
	// rr rotates the picker's scan start so replicas with equal in-flight
	// load alternate (plain round-robin when the group is idle).
	rr atomic.Uint64
	// faultHook, when set (tests only), may inject an error before a
	// replica call, exercising the failover path.
	faultHook func(replica int) error
	// changed is closed (and replaced) whenever IngestVideos, BuildIndex or
	// LoadSnapshot returns, waking every watch held on the shard's stamp;
	// Close closes it for good. changedMu guards both fields.
	changedMu sync.Mutex
	changed   chan struct{}
	closed    bool
}

// NewLocal constructs an in-process shard of r equal-seeded replicas.
func NewLocal(r int, cfg core.Config) (*Local, error) {
	if r <= 0 {
		return nil, fmt.Errorf("shard: need at least 1 replica, got %d", r)
	}
	l := &Local{
		replicas: make([]*core.System, r),
		state:    make([]replicaState, r),
		changed:  make(chan struct{}),
	}
	for i := range l.replicas {
		s, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		l.replicas[i] = s
	}
	return l, nil
}

// System exposes one replica's core.System (tests, experiments, stats).
func (l *Local) System(replica int) *core.System { return l.replicas[replica] }

// Replicas returns the replica count R.
func (l *Local) Replicas() int { return len(l.replicas) }

// Config returns the resolved system configuration.
func (l *Local) Config() core.Config { return l.replicas[0].Config() }

// pick chooses the serving replica: scanning from a rotating round-robin
// start, it takes the healthy replica with the fewest in-flight requests —
// so an idle group alternates replicas and a loaded group routes around
// the busy ones. Returns -1 when every replica is failed.
func (l *Local) pick() int {
	start := int(l.rr.Add(1)-1) % len(l.replicas)
	best := -1
	var bestLoad int64
	for off := range l.replicas {
		i := (start + off) % len(l.replicas)
		st := &l.state[i]
		if st.failed.Load() {
			continue
		}
		load := st.inflight.Load()
		if best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// replicaFault reports whether a request error indicts the replica that
// returned it. Errors that depend only on the request — unanswerable query
// text — would reproduce on every replica, so failing over on them would
// only burn healthy replicas.
func replicaFault(err error) bool {
	return !errors.Is(err, core.ErrNoRecognisedTerms)
}

// withReplica runs fn against one healthy replica, marking a replica that
// returns a fault unhealthy and transparently retrying the next healthy
// one. fn observes a fully-functional core.System along with a context
// carrying the attempt's span; the error fn returns decides failover (see
// replicaFault). Under a traced context every attempt — including the
// failed ones the retry loop papers over — records a sibling "replica"
// span, so a failover that silently rescued a query is visible in its
// trace.
func (l *Local) withReplica(ctx context.Context, fn func(ctx context.Context, sys *core.System) error) error {
	var lastErr error
	var marked []int
	for attempt := 0; attempt < len(l.replicas); attempt++ {
		ri := l.pick()
		if ri < 0 {
			break
		}
		st := &l.state[ri]
		st.inflight.Add(1)
		st.reads.Add(1)
		actx, asp := obs.Start(ctx, "replica")
		err := l.callReplica(actx, ri, fn)
		if asp.On() {
			if err != nil {
				asp.Detail(fmt.Sprintf("replica=%d err=%v", ri, err))
			} else {
				asp.Detail(fmt.Sprintf("replica=%d", ri))
			}
		}
		asp.End()
		st.inflight.Add(-1)
		if err == nil {
			return nil
		}
		if !replicaFault(err) {
			return err
		}
		st.failed.Store(true)
		marked = append(marked, ri)
		lastErr = err
	}
	if lastErr != nil {
		// Every replica this call reached failed the same way. Replicas
		// are byte-identical, so a deterministic fault reproduces on all
		// of them — indistinguishable from a request-level error. Leaving
		// the marks would let one bad request brick the whole group into
		// ErrAllReplicasDown forever; restore the replicas this call
		// marked (never ones failed before it) and surface the error
		// per-request instead. A genuinely broken replica still stays
		// failed whenever any peer answers.
		for _, ri := range marked {
			l.state[ri].failed.Store(false)
		}
		return lastErr
	}
	return ErrAllReplicasDown
}

// callReplica dispatches fn to one replica, routing through the test-only
// fault hook when set.
func (l *Local) callReplica(ctx context.Context, ri int, fn func(ctx context.Context, sys *core.System) error) error {
	if l.faultHook != nil {
		if err := l.faultHook(ri); err != nil {
			return err
		}
	}
	return fn(ctx, l.replicas[ri])
}

// Fail removes one replica from query routing — the operational "kill" used
// by failover drills. The replica keeps receiving ingest, so Revive
// restores it with the same corpus as its peers.
func (l *Local) Fail(replica int) { l.state[replica].failed.Store(true) }

// Revive returns a failed replica to query routing.
func (l *Local) Revive(replica int) { l.state[replica].failed.Store(false) }

// --- remote.ShardBackend implementation --------------------------------

// IngestVideos ingests a slice of videos in order on every replica, one
// goroutine per replica, so per-replica state is byte-identical to a serial
// ingest of the slice — and therefore identical across the group. Failed
// replicas ingest too: failure is a routing state, and a revived replica
// must hold the same corpus as its peers. Every replica is attempted even
// when one errors — aborting mid-fan-out would leave the group diverged —
// and if the error hits only some replicas (a nondeterministic fault; a
// deterministic one reproduces on all byte-identical peers), the diverged
// replicas are pulled from routing so the group keeps answering with one
// consistent corpus.
func (l *Local) IngestVideos(vs []*video.Video) error {
	defer l.wake()
	r := len(l.replicas)
	errs := make([]error, r)
	core.ParallelFor(r, r, func(ri int) {
		for _, v := range vs {
			if err := l.replicas[ri].Ingest(v); err != nil {
				errs[ri] = fmt.Errorf("replica %d: %w", ri, err)
				return
			}
		}
	})
	l.markDiverged(errs)
	return firstErr(errs)
}

// markDiverged pulls replicas whose ingest failed while a peer succeeded
// out of routing (a deterministic fault hits every replica and marks none).
func (l *Local) markDiverged(errs []error) {
	anyOK, anyErr := false, false
	for _, err := range errs {
		if err == nil {
			anyOK = true
		} else {
			anyErr = true
		}
	}
	if !anyOK || !anyErr {
		return
	}
	for ri, err := range errs {
		if err != nil {
			l.state[ri].failed.Store(true)
		}
	}
}

// BuildIndex builds every non-empty replica's index in parallel. An empty
// shard (fewer videos than shards) is skipped — it answers queries with
// zero hits either way.
func (l *Local) BuildIndex() error {
	defer l.wake()
	r := len(l.replicas)
	errs := make([]error, r)
	core.ParallelFor(r, r, func(ri int) {
		sys := l.replicas[ri]
		if sys.Entities() == 0 {
			return
		}
		if err := sys.BuildIndex(); err != nil {
			errs[ri] = fmt.Errorf("replica %d: %w", ri, err)
		}
	})
	return firstErr(errs)
}

// FastSearchBatch runs the stage-1 leg for every (text, plan) pair on ONE
// healthy replica, so queries with identical search shapes share a single
// cache-blocked sweep over the replica's stored vectors (see
// core.System.SearchPlannedBatch). Results align with texts; failover
// retries the whole batch on the next healthy replica.
func (l *Local) FastSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][]core.ResultObject, error) {
	var lists [][]core.ResultObject
	err := l.withReplica(ctx, func(ctx context.Context, sys *core.System) error {
		fhs, err := sys.SearchPlannedBatch(ctx, texts, plans)
		if err != nil {
			return err
		}
		lists = make([][]core.ResultObject, len(fhs))
		for i, fh := range fhs {
			lists[i] = fh.Objects
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return lists, nil
}

// PlanStats exports one healthy replica's planning digest — replicas are
// byte-identical and sample deterministically, so any replica speaks for
// the group.
func (l *Local) PlanStats() (core.PlanStats, error) {
	var st core.PlanStats
	//lovo:ctx-ok calibration-digest export during engine assembly, not a per-query path; withReplica only wants ctx for failover bookkeeping
	err := l.withReplica(context.Background(), func(_ context.Context, sys *core.System) error {
		st = sys.PlanStats()
		return nil
	})
	return st, err
}

// GroundCandidates runs stage 2 on one healthy replica, failing over on
// faults.
func (l *Local) GroundCandidates(ctx context.Context, text string, refs []core.FrameRef, workers int) ([]core.Grounding, error) {
	var gs []core.Grounding
	err := l.withReplica(ctx, func(ctx context.Context, sys *core.System) error {
		gs = sys.GroundCandidates(ctx, text, refs, workers)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gs, nil
}

// wake releases every watch held on the shard's stamp: the mutation that is
// returning may have moved it.
func (l *Local) wake() {
	l.changedMu.Lock()
	if !l.closed {
		close(l.changed)
		l.changed = make(chan struct{})
	}
	l.changedMu.Unlock()
}

// Status snapshots the shard (see status). A nil since answers at once; a
// watch answers as soon as the stamp differs from *since — woken by the
// shard's own mutations — or after remote.Heartbeat, or at once on a
// closed shard.
func (l *Local) Status(since *remote.Stamp) (remote.ShardStatus, error) {
	if since == nil {
		return l.status(), nil
	}
	// Taken before the stamp is read, so a mutation returning in between
	// still wakes this watch.
	l.changedMu.Lock()
	changed := l.changed
	l.changedMu.Unlock()
	if st := l.status(); st.Stamp() != *since {
		return st, nil
	}
	t := time.NewTimer(remote.Heartbeat)
	defer t.Stop()
	select {
	case <-changed:
	case <-t.C:
	}
	return l.status(), nil
}

// status assembles the shard's snapshot from counter reads alone. The
// primary replica speaks for the group's corpus figures (copies don't
// multiply the corpus, and replicas converge to identical segment
// structures). The generation is the MINIMUM across replicas — not the
// primary's value — which matters mid-fan-out: a request may be served by a
// replica that hasn't received the newest video yet, and stamping its answer
// with a generation the laggard hasn't reached would let that stale answer
// survive in a cache forever. Built holds when every non-empty replica has
// built its index.
func (l *Local) status() remote.ShardStatus {
	primary := l.replicas[0]
	st := remote.ShardStatus{
		Gen:      primary.IngestGen(),
		Built:    true,
		Entities: primary.Entities(),
		Ingest:   primary.Stats(),
		Replicas: make([]ReplicaStat, len(l.replicas)),
		Config:   remote.Summarize(l.Config(), len(l.replicas)),
	}
	st.Segments, _ = primary.SegmentStats()
	for ri, s := range l.replicas {
		if gen := s.IngestGen(); gen < st.Gen {
			st.Gen = gen
		}
		if s.Entities() > 0 && !s.Built() {
			st.Built = false
		}
		rs := &l.state[ri]
		st.Replicas[ri] = ReplicaStat{
			Healthy:  !rs.failed.Load(),
			Reads:    rs.reads.Load(),
			Inflight: rs.inflight.Load(),
		}
	}
	return st
}

// SaveSnapshot serialises one replica's full system state (the primary
// speaks for its byte-identical group). Must not run concurrently with
// ingest or index builds.
func (l *Local) SaveSnapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := l.replicas[0].SaveSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadSnapshot restores a SaveSnapshot payload into every replica of this
// freshly-constructed shard — the replica count need not match the saver's.
func (l *Local) LoadSnapshot(data []byte) error {
	defer l.wake()
	for ri, s := range l.replicas {
		if err := s.LoadSnapshot(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("replica %d: %w", ri, err)
		}
	}
	return nil
}

// Close releases every held watch and answers later ones at once; the
// shard itself keeps serving.
func (l *Local) Close() error {
	l.changedMu.Lock()
	if !l.closed {
		l.closed = true
		close(l.changed)
	}
	l.changedMu.Unlock()
	return nil
}
