package vectordb

import (
	"fmt"
	"sync"

	"repro/internal/ann"
	"repro/internal/mat"
	"repro/internal/obs"
)

// SegmentedCollection implements the incremental-indexing design the paper
// lists as future work (Section IX): "leveraging segmented parallel
// processing to reduce the overhead of full rebuilds during video updates
// and enhancing the incremental indexing strategy for new insertions".
//
// Inserts land in a small mutable growing segment that is searched exactly;
// when the growing segment reaches SealThreshold it is sealed and handed to
// a background maintenance worker that builds its index off-lock — the
// sealing Insert returns immediately and queries keep answering from the
// growing segment, the not-yet-indexed sealed segments (scanned exactly)
// and the already-indexed ones throughout. A query fans out across every
// segment and merges the top-k.
//
// The maintenance worker also runs a size-tiered compaction policy: when
// CompactFanIn adjacent sealed segments share a size tier they are merged
// into one freshly indexed segment, bounding per-query fan-out under
// sustained ingest. Segment identity is the inclusive range [lo, hi] of
// seal sequence numbers a segment covers; index seeds derive from that
// identity alone, so any replica that compacts the same member set builds a
// byte-identical index regardless of when in its ingest history it
// compacted. Builds run in seal order and the policy always merges the
// leftmost qualifying run, so equal ingest histories converge to equal
// segment structures at quiesce.
type SegmentedCollection struct {
	name   string
	schema Schema
	kind   IndexKind
	opts   IndexOptions
	// sealThreshold is the growing-segment size that triggers a seal.
	sealThreshold int

	mu   sync.RWMutex
	cond *sync.Cond // broadcast on every maintenance transition
	// sealed segments have data frozen and an index built (or a recorded
	// build failure); ascending by lo, ranges contiguous.
	sealed []*segment
	// building segments have data frozen but their index build still
	// pending or in flight; searched via the exact-scan fallback.
	building []*segment
	growing  *Collection
	seq      int // seal sequence number of the current growing segment
	// compactFanIn is the tiered policy's fan-in; <= 1 disables the
	// background policy (manual Compact still works).
	compactFanIn int
	maintRunning bool
	compacting   bool
	maintErr     error
	seals        uint64
	compactions  uint64
	events       []MaintEvent

	// buildHook, when set (tests), runs at the start of every background
	// index build, off the collection lock.
	buildHook func()
}

// segment is one immutable member of the collection: its vectors plus the
// identity range of seal sequence numbers it covers.
type segment struct {
	col    *Collection
	lo, hi int
}

// DefaultCompactFanIn is the size-tiered compaction policy's default
// fan-in: a run of this many adjacent same-tier sealed segments merges.
const DefaultCompactFanIn = 4

// maintEventCap bounds the retained maintenance log.
const maintEventCap = 32

// MaintEvent records one background maintenance operation (a seal's index
// build or a compaction) with its obs span tree, for the debug tier.
type MaintEvent struct {
	// Op is "seal" or "compact".
	Op string
	// Segments is the number of member segments involved.
	Segments int
	// Vectors is the vector count of the produced segment.
	Vectors int
	// Err is the build error message, if the operation failed.
	Err string
	// Spans is the operation's exported obs span forest; Spans[0] is the
	// root and carries the wall duration.
	Spans []obs.SpanData
}

// SegmentStats is the per-state segment breakdown a streaming collection
// exposes to operators (satellite of ISSUE 10: Stats() must not hide the
// segment lifecycle).
type SegmentStats struct {
	// Streaming marks the stats as coming from a segmented collection.
	Streaming bool
	// Sealed counts segments with a built index; Building counts sealed
	// segments whose background build is still pending or in flight;
	// Growing counts mutable segments (always 1 per collection — it exists
	// so fleet-level aggregation can sum per-shard stats honestly).
	Sealed, Building, Growing int
	// GrowingLen is the vector count of the mutable growing segment;
	// SealedVectors the total across sealed+building segments.
	GrowingLen, SealedVectors int
	// RawBytes and IndexBytes mirror Stats for the respective states: the
	// rows once, and the indexes without the rows they borrow.
	RawBytes, IndexBytes int64
	// Seals and Compactions count maintenance operations since creation.
	Seals, Compactions uint64
}

// DefaultSegmentSize is the seal threshold, in vectors per segment, that a
// non-positive sealThreshold (and core's SegmentSize) resolves to.
const DefaultSegmentSize = 4096

// NewSegmented creates a segmented collection. sealThreshold <= 0 selects
// DefaultSegmentSize.
func NewSegmented(name string, schema Schema, kind IndexKind, opts IndexOptions, sealThreshold int) (*SegmentedCollection, error) {
	if err := checkDim(schema.Dim); err != nil {
		return nil, err
	}
	if sealThreshold <= 0 {
		sealThreshold = DefaultSegmentSize
	}
	s := &SegmentedCollection{
		name:          name,
		schema:        schema,
		kind:          kind,
		opts:          opts,
		sealThreshold: sealThreshold,
		compactFanIn:  DefaultCompactFanIn,
	}
	s.cond = sync.NewCond(&s.mu)
	s.growing = s.newSegment()
	return s, nil
}

func (s *SegmentedCollection) newSegment() *Collection {
	s.seq++
	return newCollection(segName(s.name, s.seq, s.seq), s.schema)
}

// segName names the segment covering seal sequences [lo, hi].
func segName(base string, lo, hi int) string {
	if lo == hi {
		return fmt.Sprintf("%s/seg-%d", base, lo)
	}
	return fmt.Sprintf("%s/seg-%d-%d", base, lo, hi)
}

// segSeed derives the index seed for the segment covering seal sequences
// [lo, hi] from the collection's base seed and nothing else — a replica
// must arrive at the same seed for the same member set no matter when in
// its ingest history it seals or compacts (the seed must never depend on
// mutable state like the current growing-segment sequence). splitmix64
// finalizer over the mixed identity.
func segSeed(base uint64, lo, hi int) uint64 {
	x := base ^ uint64(lo)*0x9e3779b97f4a7c15 ^ uint64(hi)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Name returns the collection name.
func (s *SegmentedCollection) Name() string { return s.name }

// Len returns the total vector count across segments.
func (s *SegmentedCollection) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.growing.Len()
	for _, seg := range s.sealed {
		n += seg.col.Len()
	}
	for _, seg := range s.building {
		n += seg.col.Len()
	}
	return n
}

// Segments returns (sealed, growing) segment counts. Sealed counts every
// frozen segment, whether or not its background index build has finished.
func (s *SegmentedCollection) Segments() (sealed int, growingLen int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sealed) + len(s.building), s.growing.Len()
}

// SetCompactFanIn tunes the size-tiered background compaction policy: a
// run of n adjacent same-tier sealed segments merges. n <= 1 disables the
// policy; manual Compact is unaffected.
func (s *SegmentedCollection) SetCompactFanIn(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactFanIn = n
}

// Insert adds a vector to the growing segment, sealing it in the
// background when full — the sealing insert does not pay for the index
// build. Duplicate IDs are rejected across all segments.
func (s *SegmentedCollection) Insert(id int64, v mat.Vec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.sealed {
		if _, dup := seg.col.rows.Pos(id); dup {
			return fmt.Errorf("%w: %d", ErrDuplicate, id)
		}
	}
	for _, seg := range s.building {
		if _, dup := seg.col.rows.Pos(id); dup {
			return fmt.Errorf("%w: %d", ErrDuplicate, id)
		}
	}
	if err := s.growing.Insert(id, v); err != nil {
		return err
	}
	if s.growing.Len() >= s.sealThreshold {
		s.sealLocked()
	}
	return nil
}

// Seal force-seals the growing segment (e.g. at the end of an ingest
// batch); the index build happens in the background. A no-op when the
// growing segment is empty. Returns any error recorded by earlier
// background maintenance.
func (s *SegmentedCollection) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealLocked()
	return s.maintErr
}

// sealLocked freezes the growing segment and queues its index build on the
// maintenance worker. Caller holds s.mu.
func (s *SegmentedCollection) sealLocked() {
	if s.growing.Len() == 0 {
		return
	}
	seg := &segment{col: s.growing, lo: s.seq, hi: s.seq}
	s.building = append(s.building, seg)
	s.seals++
	s.growing = s.newSegment()
	if !s.maintRunning {
		s.maintRunning = true
		go s.maintain()
	}
}

// maintain is the background maintenance worker: it drains queued index
// builds in seal order, then runs the compaction policy, and exits once
// there is nothing left to do. At most one runs per collection, which
// keeps build completion in seal order — the property that makes the
// compaction policy's decisions (and therefore the final segment
// structure) a pure function of ingest history.
func (s *SegmentedCollection) maintain() {
	s.mu.Lock()
	for {
		if len(s.building) > 0 {
			seg := s.building[0]
			hook := s.buildHook
			s.mu.Unlock()
			ev, err := s.buildSegment(seg, hook)
			s.mu.Lock()
			s.building = s.building[1:]
			s.insertSealedLocked(seg)
			if err != nil && s.maintErr == nil {
				s.maintErr = fmt.Errorf("vectordb: sealing segment %s: %w", seg.col.name, err)
			}
			s.pushEventLocked(ev)
			s.cond.Broadcast()
			continue
		}
		members := s.nextCompactionLocked()
		if members == nil {
			break
		}
		s.compacting = true
		s.mu.Unlock()
		merged, ev, err := s.compactMembers(members)
		s.mu.Lock()
		s.compacting = false
		if err != nil {
			if s.maintErr == nil {
				s.maintErr = err
			}
		} else {
			s.replaceMembersLocked(members, merged)
			s.compactions++
		}
		s.pushEventLocked(ev)
		s.cond.Broadcast()
	}
	s.maintRunning = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// buildSegment builds one frozen segment's index off-lock.
func (s *SegmentedCollection) buildSegment(seg *segment, hook func()) (MaintEvent, error) {
	if hook != nil {
		hook()
	}
	tr := obs.NewTrace(obs.NewID())
	root := tr.Root("maint.seal")
	opts := s.opts
	opts.Seed = segSeed(s.opts.Seed, seg.lo, seg.hi)
	sp := root.Child("index.build")
	err := seg.col.BuildIndexSealed(s.kind, opts)
	if sp.On() {
		sp.Detail(fmt.Sprintf("kind=%s vectors=%d seg=[%d,%d]", s.kind, seg.col.Len(), seg.lo, seg.hi))
	}
	sp.End()
	root.End()
	ev := MaintEvent{Op: "seal", Segments: 1, Vectors: seg.col.Len(), Spans: tr.Export()}
	if err != nil {
		ev.Err = err.Error()
	}
	return ev, err
}

// insertSealedLocked files a freshly indexed segment into the sealed list,
// keeping it ascending by lo. Caller holds s.mu.
func (s *SegmentedCollection) insertSealedLocked(seg *segment) {
	i := len(s.sealed)
	for i > 0 && s.sealed[i-1].lo > seg.lo {
		i--
	}
	s.sealed = append(s.sealed, nil)
	copy(s.sealed[i+1:], s.sealed[i:])
	s.sealed[i] = seg
}

// tier buckets a segment size for the compaction policy: tier t holds
// sizes in [threshold*F^t, threshold*F^(t+1)); undersized force-sealed
// segments land in tier 0.
func (s *SegmentedCollection) tier(n int) int {
	t := 0
	limit := s.sealThreshold * s.compactFanIn
	for limit > 0 && n >= limit {
		t++
		limit *= s.compactFanIn
	}
	return t
}

// nextCompactionLocked returns the leftmost run of compactFanIn adjacent
// sealed segments sharing a size tier, or nil when no run qualifies.
// Caller holds s.mu.
func (s *SegmentedCollection) nextCompactionLocked() []*segment {
	f := s.compactFanIn
	if f <= 1 || len(s.sealed) < f {
		return nil
	}
	start, curTier := 0, -1
	for i, seg := range s.sealed {
		t := s.tier(seg.col.Len())
		if t != curTier {
			start, curTier = i, t
		}
		if i-start+1 == f {
			return append([]*segment(nil), s.sealed[start:i+1]...)
		}
	}
	return nil
}

// compactMembers merges an ascending contiguous run of sealed segments
// into one freshly indexed segment, off-lock. The merged identity is the
// union range [members[0].lo, members[last].hi], so its seed — and hence
// its index — is byte-identical on any replica merging the same set.
func (s *SegmentedCollection) compactMembers(members []*segment) (*segment, MaintEvent, error) {
	tr := obs.NewTrace(obs.NewID())
	root := tr.Root("maint.compact")
	lo, hi := members[0].lo, members[len(members)-1].hi
	col := newCollection(segName(s.name, lo, hi), s.schema)
	sp := root.Child("merge")
	// Rows are copied bit-exact — NOT re-inserted through Insert, whose
	// re-normalisation would perturb already-normalised floats by an ulp
	// and break the exact-search bit-identity contract across a compaction.
	// Members are immutable and hold disjoint ids, so their rows are read
	// without their locks and no append is refused.
	for _, m := range members {
		for i := 0; i < m.col.rows.Len(); i++ {
			col.rows.Append(m.col.rows.ID(i), m.col.rows.Row(i))
		}
	}
	sp.End()
	ev := MaintEvent{Op: "compact", Segments: len(members), Vectors: col.Len()}
	opts := s.opts
	opts.Seed = segSeed(s.opts.Seed, lo, hi)
	sp = root.Child("index.build")
	err := col.BuildIndexSealed(s.kind, opts)
	if sp.On() {
		sp.Detail(fmt.Sprintf("kind=%s vectors=%d seg=[%d,%d]", s.kind, col.Len(), lo, hi))
	}
	sp.End()
	root.End()
	ev.Spans = tr.Export()
	if err != nil {
		ev.Err = err.Error()
		return nil, ev, fmt.Errorf("vectordb: compacting index: %w", err)
	}
	return &segment{col: col, lo: lo, hi: hi}, ev, nil
}

// replaceMembersLocked swaps a merged segment in for its members in one
// atomic list update. Caller holds s.mu.
func (s *SegmentedCollection) replaceMembersLocked(members []*segment, merged *segment) {
	isMember := make(map[*segment]bool, len(members))
	for _, m := range members {
		isMember[m] = true
	}
	out := s.sealed[:0]
	placed := false
	for _, seg := range s.sealed {
		if isMember[seg] {
			if !placed {
				out = append(out, merged)
				placed = true
			}
			continue
		}
		out = append(out, seg)
	}
	for i := len(out); i < len(s.sealed); i++ {
		s.sealed[i] = nil
	}
	s.sealed = out
}

// pushEventLocked appends to the bounded maintenance log. Caller holds
// s.mu.
func (s *SegmentedCollection) pushEventLocked(ev MaintEvent) {
	s.events = append(s.events, ev)
	if len(s.events) > maintEventCap {
		s.events = s.events[len(s.events)-maintEventCap:]
	}
}

// MaintLog returns the most recent maintenance operations (seal builds and
// compactions) with their obs span trees, newest last.
func (s *SegmentedCollection) MaintLog() []MaintEvent {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]MaintEvent(nil), s.events...)
}

// MaintErr returns the first error recorded by background maintenance, if
// any.
func (s *SegmentedCollection) MaintErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.maintErr
}

// WaitMaintenance blocks until every queued index build and compaction has
// finished, then returns the first background maintenance error, if any.
// Under sustained concurrent ingest this waits for a momentary quiesce.
func (s *SegmentedCollection) WaitMaintenance() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.maintRunning || len(s.building) > 0 || s.compacting {
		s.cond.Wait()
	}
	return s.maintErr
}

// Search fans out across all segments and merges the global top-k.
// Segments whose background build has not finished are scanned exactly, so
// a query never waits on an index build.
func (s *SegmentedCollection) Search(q mat.Vec, k int, p ann.Params) ([]mat.Scored, error) {
	if len(q) != s.schema.Dim {
		return nil, fmt.Errorf("%w: query %d != %d", ErrDimension, len(q), s.schema.Dim)
	}
	if k <= 0 {
		return nil, nil
	}
	segs := s.snapshotSegments()

	// Parallel fan-out: each segment searches independently (the
	// "segmented parallel processing" of the paper's future work).
	type result struct {
		hits []mat.Scored
		err  error
	}
	results := make([]result, len(segs))
	var wg sync.WaitGroup
	for i, seg := range segs {
		wg.Add(1)
		go func(i int, seg *Collection) {
			defer wg.Done()
			hits, err := seg.Search(q, k, p)
			results[i] = result{hits, err}
		}(i, seg)
	}
	wg.Wait()

	top := mat.GetTopK(k)
	defer mat.PutTopK(top)
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for _, h := range r.hits {
			top.Push(h.ID, h.Score)
		}
	}
	return top.Sorted(), nil
}

// snapshotSegments captures the current searchable segment set.
func (s *SegmentedCollection) snapshotSegments() []*Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	segs := make([]*Collection, 0, len(s.sealed)+len(s.building)+1)
	for _, seg := range s.sealed {
		segs = append(segs, seg.col)
	}
	for _, seg := range s.building {
		segs = append(segs, seg.col)
	}
	if s.growing.Len() > 0 {
		segs = append(segs, s.growing)
	}
	return segs
}

// Scan visits every stored vector in insertion order (sealed segments
// oldest first, then pending builds, then the growing segment) until fn
// returns false. The visited slice aliases segment storage — fn must not
// retain or mutate it.
func (s *SegmentedCollection) Scan(fn func(id int64, v mat.Vec) bool) {
	s.mu.RLock()
	segs := make([]*Collection, 0, len(s.sealed)+len(s.building)+1)
	for _, seg := range s.sealed {
		segs = append(segs, seg.col)
	}
	for _, seg := range s.building {
		segs = append(segs, seg.col)
	}
	segs = append(segs, s.growing)
	s.mu.RUnlock()
	stop := false
	for _, col := range segs {
		if stop {
			return
		}
		col.Scan(func(id int64, v mat.Vec) bool {
			if !fn(id, v) {
				stop = true
				return false
			}
			return true
		})
	}
}

// Compact merges every sealed segment into a single freshly indexed
// segment; an offline maintenance operation trading one big build for
// lower per-query fan-out. It first waits for queued background builds and
// compactions to drain, so the merge covers every segment sealed before
// the call. The merged segment's seed derives from the member identity
// range, so replicas compacting the same ingest prefix produce
// byte-identical indexes even if they compacted at different points in
// their history.
func (s *SegmentedCollection) Compact() error {
	s.mu.Lock()
	for s.maintRunning || len(s.building) > 0 || s.compacting {
		s.cond.Wait()
	}
	if err := s.maintErr; err != nil {
		s.mu.Unlock()
		return err
	}
	if len(s.sealed) <= 1 {
		s.mu.Unlock()
		return nil
	}
	members := append([]*segment(nil), s.sealed...)
	s.compacting = true
	s.mu.Unlock()

	merged, ev, err := s.compactMembers(members)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacting = false
	defer s.cond.Broadcast()
	s.pushEventLocked(ev)
	if err != nil {
		return err
	}
	s.replaceMembersLocked(members, merged)
	s.compactions++
	return nil
}

// Stats aggregates per-segment statistics.
func (s *SegmentedCollection) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := Stats{Name: s.name, Dim: s.schema.Dim, IndexKind: s.kind}
	for _, seg := range s.sealed {
		st := seg.col.Stats()
		out.Count += st.Count
		out.RawBytes += st.RawBytes
		out.IndexBytes += st.IndexBytes
	}
	for _, seg := range s.building {
		st := seg.col.Stats()
		out.Count += st.Count
		out.RawBytes += st.RawBytes
	}
	st := s.growing.Stats()
	out.Count += st.Count
	out.RawBytes += st.RawBytes
	return out
}

// SegmentStats reports the per-state segment breakdown.
func (s *SegmentedCollection) SegmentStats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := SegmentStats{
		Streaming:   true,
		Sealed:      len(s.sealed),
		Building:    len(s.building),
		Growing:     1,
		GrowingLen:  s.growing.Len(),
		Seals:       s.seals,
		Compactions: s.compactions,
	}
	for _, seg := range s.sealed {
		st := seg.col.Stats()
		out.SealedVectors += st.Count
		out.RawBytes += st.RawBytes
		out.IndexBytes += st.IndexBytes
	}
	for _, seg := range s.building {
		st := seg.col.Stats()
		out.SealedVectors += st.Count
		out.RawBytes += st.RawBytes
	}
	out.RawBytes += s.growing.Stats().RawBytes
	return out
}
