package shard

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/video"
)

// Local is one in-process shard: one core.System adapted to
// remote.ShardBackend, plus the wake that releases watches held on its
// stamp. An Engine composes it interchangeably with remote.Client shards,
// and cmd/lovoshard hosts one behind a remote.Server.
type Local struct {
	sys *core.System
	// changed is closed (and replaced) whenever IngestVideos, BuildIndex or
	// LoadSnapshot returns, waking every watch held on the shard's stamp;
	// Close closes it for good. changedMu guards both fields.
	changedMu sync.Mutex
	changed   chan struct{}
	closed    bool
}

// NewLocal constructs an in-process shard holding one core.System built
// from cfg. r must be 1: a shard is one system, and r stays in the
// signature only because benchmark/ passes it (ROADMAP item 1).
func NewLocal(r int, cfg core.Config) (*Local, error) {
	if r != 1 {
		return nil, fmt.Errorf("shard: a shard holds one system, got %d replicas", r)
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Local{sys: sys, changed: make(chan struct{})}, nil
}

// System exposes the shard's core.System (tests, experiments, stats). The
// argument is ignored; it stays only because benchmark/ passes 0 (ROADMAP
// item 1).
func (l *Local) System(int) *core.System { return l.sys }

// Config returns the resolved system configuration.
func (l *Local) Config() core.Config { return l.sys.Config() }

// --- remote.ShardBackend implementation --------------------------------

// IngestVideos ingests a slice of videos in order, so the shard's state is
// byte-identical to a serial ingest of the slice.
func (l *Local) IngestVideos(vs []*video.Video) error {
	defer l.wake()
	for _, v := range vs {
		if err := l.sys.Ingest(v); err != nil {
			return err
		}
	}
	return nil
}

// BuildIndex builds the shard's index. An empty shard (fewer videos than
// shards) is skipped — it answers queries with zero hits either way.
func (l *Local) BuildIndex() error {
	defer l.wake()
	if l.sys.Entities() == 0 {
		return nil
	}
	return l.sys.BuildIndex()
}

// FastSearchBatch runs the stage-1 leg for every (text, plan) pair, so
// queries with identical search shapes share a single cache-blocked sweep
// over the shard's stored vectors (see core.System.SearchPlannedBatch).
// Results align with texts.
func (l *Local) FastSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][]core.ResultObject, error) {
	fhs, err := l.sys.SearchPlannedBatch(ctx, texts, plans)
	if err != nil {
		return nil, err
	}
	lists := make([][]core.ResultObject, len(fhs))
	for i, fh := range fhs {
		lists[i] = fh.Objects
	}
	return lists, nil
}

// GroundCandidates runs stage 2 over the shard's candidate frames.
func (l *Local) GroundCandidates(ctx context.Context, text string, refs []core.FrameRef, workers int) ([]core.Grounding, error) {
	return l.sys.GroundCandidates(ctx, text, refs, workers), nil
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

// status assembles the shard's snapshot from counter reads alone. Built
// holds when the shard is empty or has built its index.
func (l *Local) status() remote.ShardStatus {
	gen, entities := l.sys.IngestGen(), l.sys.Entities()
	st := remote.ShardStatus{
		Gen:      gen,
		Built:    entities == 0 || l.sys.Built(),
		Entities: entities,
		Ingest:   l.sys.Stats(),
		Config:   remote.Summarize(l.Config(), 0),
	}
	st.Segments, _ = l.sys.SegmentStats()
	return st
}

// SaveSnapshot serialises the shard's full system state. Must not run
// concurrently with ingest or index builds.
func (l *Local) SaveSnapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := l.sys.SaveSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// LoadSnapshot restores a SaveSnapshot payload into this
// freshly-constructed shard.
func (l *Local) LoadSnapshot(data []byte) error {
	defer l.wake()
	return l.sys.LoadSnapshot(bytes.NewReader(data))
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
