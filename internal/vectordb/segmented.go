package vectordb

import (
	"fmt"
	"slices"
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
// A segment is in one of two states. Inserts land in the one mutable
// growing segment; when it reaches the seal threshold it is frozen and
// handed to a background maintenance worker that builds its index off-lock
// — the sealing Insert returns immediately, and until the build lands the
// frozen segment answers through its collection's exact scan, so queries
// never wait on a build. A query fans out across every segment and merges
// the top-k.
//
// The maintenance worker also runs a size-tiered compaction policy: when
// compactFanIn adjacent built segments share a size tier they are merged
// into one freshly indexed segment, bounding per-query fan-out under
// sustained ingest. Segment identity is the inclusive range [lo, hi] of
// seal sequence numbers a segment covers; index seeds derive from that
// identity alone, so any replica that compacts the same member set builds a
// byte-identical index regardless of when in its ingest history it
// compacted. Builds run in seal order and the policy always merges the
// leftmost qualifying run, so equal ingest histories converge to equal
// segment structures at quiesce.
//
// Seal threshold 0 is the paper's own design, one index over the whole
// collection (Section V): the store never seals by size, and every Seal
// merges the growing segment and every frozen segment into one segment
// indexed with the base seed — exactly a monolithic index build over
// everything ingested. Inserts after a Seal are exact-scanned from the
// growing segment until the next one.
type SegmentedCollection struct {
	name   string
	schema Schema
	kind   IndexKind
	opts   IndexOptions
	// sealThreshold is the growing-segment size that triggers a seal; 0
	// never seals by size and keeps one frozen segment.
	sealThreshold int

	mu   sync.RWMutex
	cond *sync.Cond // broadcast when the maintenance worker exits
	// frozen segments have immutable rows; ascending by lo, ranges
	// contiguous. The first built of them have an index installed (or a
	// recorded build failure). Builds run in seal order and compaction only
	// merges built segments, so the built ones are always a prefix.
	frozen       []*segment
	built        int
	growing      *Collection
	seq          int // seal sequence number of the current growing segment
	maintRunning bool
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

// compactFanIn is the size-tiered compaction policy's fan-in: a run of
// this many adjacent same-tier built segments merges.
const compactFanIn = 4

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

// SegmentStats is the per-state segment breakdown a segmented collection
// exposes to operators. Serving tiers report the zero value for a store of
// seal threshold 0 (a batch store).
type SegmentStats struct {
	// Sealed counts frozen segments with a built index; Building counts
	// frozen segments whose background build is still pending or in
	// flight; Growing counts mutable segments — always 1 per collection,
	// so Growing > 0 is the signal that a store (or any shard of a fleet,
	// when summed) reports segments.
	Sealed, Building, Growing int
	// GrowingLen is the vector count of the mutable growing segment;
	// SealedVectors the total across frozen segments.
	GrowingLen, SealedVectors int
	// RawBytes and IndexBytes mirror Stats: the rows once, and the
	// installed indexes without the rows they borrow.
	RawBytes, IndexBytes int64
	// Seals and Compactions count maintenance operations since creation.
	Seals, Compactions uint64
}

// NewSegmented creates a segmented collection that seals its growing
// segment every sealThreshold vectors, or only on Seal when sealThreshold
// is 0 (negative is an error). kind must be one of the supported index
// kinds — every seal builds one, and a kind that can never build would
// leave maintenance retrying forever.
func NewSegmented(name string, schema Schema, kind IndexKind, opts IndexOptions, sealThreshold int) (*SegmentedCollection, error) {
	if err := checkDim(schema.Dim); err != nil {
		return nil, err
	}
	if k, err := ParseKind(string(kind)); err != nil || k != kind {
		return nil, fmt.Errorf("vectordb: unknown index kind %q", kind)
	}
	if sealThreshold < 0 {
		return nil, fmt.Errorf("vectordb: seal threshold %d is negative", sealThreshold)
	}
	s := &SegmentedCollection{
		name:          name,
		schema:        schema,
		kind:          kind,
		opts:          opts,
		sealThreshold: sealThreshold,
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

// seedFor is the seed rule every index build of the collection follows —
// seal builds, compactions and LoadSegmented alike: the base seed when the
// threshold is 0 (the one segment is the monolithic index), else the seed
// of the segment's identity range.
func (s *SegmentedCollection) seedFor(lo, hi int) uint64 {
	if s.sealThreshold == 0 {
		return s.opts.Seed
	}
	return segSeed(s.opts.Seed, lo, hi)
}

// Name returns the collection name.
func (s *SegmentedCollection) Name() string { return s.name }

// Recipe returns what the collection builds its indexes with: the index
// kind and options and the seal threshold.
func (s *SegmentedCollection) Recipe() (IndexKind, IndexOptions, int) {
	return s.kind, s.opts, s.sealThreshold
}

// Len returns the total vector count across segments.
func (s *SegmentedCollection) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.growing.Len()
	for _, seg := range s.frozen {
		n += seg.col.Len()
	}
	return n
}

// Insert adds a vector to the growing segment, sealing it in the
// background when full — the sealing insert does not pay for the index
// build. Duplicate IDs are rejected across all segments.
func (s *SegmentedCollection) Insert(id int64, v mat.Vec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.frozen {
		if _, dup := seg.col.rows.Pos(id); dup {
			return fmt.Errorf("%w: %d", ErrDuplicate, id)
		}
	}
	if err := s.growing.Insert(id, v); err != nil {
		return err
	}
	if s.sealThreshold > 0 && s.growing.Len() >= s.sealThreshold {
		s.sealLocked()
	}
	return nil
}

// Seal force-seals the growing segment (e.g. at the end of an ingest
// batch); the index build happens in the background. A no-op when the
// growing segment is empty. Returns any error recorded by earlier
// background maintenance. At threshold 0 the build merges every segment
// into one, and a store with nothing to index is ErrEmptyBuild.
func (s *SegmentedCollection) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealThreshold == 0 && len(s.frozen) == 0 && s.growing.Len() == 0 {
		return ErrEmptyBuild
	}
	s.sealLocked()
	return s.maintErr
}

// sealLocked freezes the growing segment and queues its index build on the
// maintenance worker. Caller holds s.mu.
func (s *SegmentedCollection) sealLocked() {
	if s.growing.Len() == 0 {
		return
	}
	s.frozen = append(s.frozen, &segment{col: s.growing, lo: s.seq, hi: s.seq})
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
// keeps build completion in seal order — the property that keeps built
// segments a prefix of the frozen list and makes the compaction policy's
// decisions (and therefore the final segment structure) a pure function of
// ingest history.
func (s *SegmentedCollection) maintain() {
	s.mu.Lock()
	for {
		if s.sealThreshold == 0 && len(s.frozen) > 1 && s.maintErr == nil {
			// Threshold 0 keeps one segment: a seal past the first
			// rebuilds everything, as a monolithic index build would.
			s.compactLocked(0, len(s.frozen))
			continue
		}
		if s.built < len(s.frozen) {
			// Only this goroutine advances built or replaces frozen
			// entries; seals merely append, so the segment stays at index
			// built across the off-lock build.
			seg := s.frozen[s.built]
			hook := s.buildHook
			s.mu.Unlock()
			ev, err := s.buildSegment(seg, hook)
			s.mu.Lock()
			s.built++
			if err != nil && s.maintErr == nil {
				s.maintErr = fmt.Errorf("vectordb: sealing segment %s: %w", seg.col.name, err)
			}
			s.pushEventLocked(ev)
			continue
		}
		start := s.nextCompactionLocked()
		if start < 0 {
			break
		}
		s.compactLocked(start, start+compactFanIn)
	}
	s.maintRunning = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// compactLocked merges the frozen segments [start, end) into one freshly
// indexed segment off-lock and swaps it in. Caller holds s.mu and is the
// maintenance worker: seals only append meanwhile, so the members still sit
// at start when it relocks.
func (s *SegmentedCollection) compactLocked(start, end int) {
	members := append([]*segment(nil), s.frozen[start:end]...)
	s.mu.Unlock()
	merged, ev, err := s.compactMembers(members)
	s.mu.Lock()
	if err != nil {
		if s.maintErr == nil {
			s.maintErr = err
		}
	} else {
		s.frozen = slices.Replace(s.frozen, start, end, merged)
		// The merged segment is built; so are the survivors of the old
		// built prefix past the members, if any.
		s.built = start + 1 + max(0, s.built-end)
		s.compactions++
	}
	s.pushEventLocked(ev)
}

// buildSegment builds one frozen segment's index off-lock.
func (s *SegmentedCollection) buildSegment(seg *segment, hook func()) (MaintEvent, error) {
	if hook != nil {
		hook()
	}
	tr := obs.NewTrace(obs.NewID())
	root := tr.Root("maint.seal")
	opts := s.opts
	opts.Seed = s.seedFor(seg.lo, seg.hi)
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

// tier buckets a segment size for the compaction policy: tier t holds
// sizes in [threshold*F^t, threshold*F^(t+1)); undersized force-sealed
// segments land in tier 0.
func (s *SegmentedCollection) tier(n int) int {
	t := 0
	limit := s.sealThreshold * compactFanIn
	for limit > 0 && n >= limit {
		t++
		limit *= compactFanIn
	}
	return t
}

// nextCompactionLocked returns the start of the leftmost run of
// compactFanIn adjacent built segments sharing a size tier, or -1 when no
// run qualifies. Caller holds s.mu.
func (s *SegmentedCollection) nextCompactionLocked() int {
	start, curTier := 0, -1
	for i, seg := range s.frozen[:s.built] {
		t := s.tier(seg.col.Len())
		if t != curTier {
			start, curTier = i, t
		}
		if i-start+1 == compactFanIn {
			return start
		}
	}
	return -1
}

// compactMembers merges an ascending contiguous run of segments into one
// freshly indexed segment, off-lock. The merged identity is the union range
// [members[0].lo, members[last].hi], so its seed — and hence its index — is
// byte-identical on any replica merging the same set.
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
	opts.Seed = s.seedFor(lo, hi)
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

// WaitMaintenance blocks until every queued index build and compaction has
// finished, then returns the first background maintenance error, if any.
// Under sustained concurrent ingest this waits for a momentary quiesce.
func (s *SegmentedCollection) WaitMaintenance() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A seal starts the worker if it is idle, and the worker exits only
	// once no build or compaction is left, so waiting for it to stop is
	// enough.
	for s.maintRunning {
		s.cond.Wait()
	}
	return s.maintErr
}

// Search is SearchBatch for one query.
func (s *SegmentedCollection) Search(q mat.Vec, k int, p ann.Params) ([]mat.Scored, error) {
	out, err := s.SearchBatch([]mat.Vec{q}, k, p)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SearchBatch answers many queries under one set of search parameters,
// results aligned with qs. Every segment runs its own Collection.SearchBatch
// in parallel (the "segmented parallel processing" of the paper's future
// work) and each query's per-segment lists merge into the global top-k; a
// lone searchable segment's lists are the answer as they stand. A frozen
// segment whose build has not landed answers with its exact scan, so a
// query never waits on an index build.
func (s *SegmentedCollection) SearchBatch(qs []mat.Vec, k int, p ann.Params) ([][]mat.Scored, error) {
	for i, q := range qs {
		if len(q) != s.schema.Dim {
			return nil, fmt.Errorf("%w: query %d: %d != %d", ErrDimension, i, len(q), s.schema.Dim)
		}
	}
	out := make([][]mat.Scored, len(qs))
	if k <= 0 {
		return out, nil
	}
	segs := s.snapshotSegments()
	if len(segs) == 1 {
		return segs[0].SearchBatch(qs, k, p)
	}
	lists := make([][][]mat.Scored, len(segs))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i, seg := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i], errs[i] = seg.SearchBatch(qs, k, p)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	top := mat.GetTopK(k)
	defer mat.PutTopK(top)
	for qi := range qs {
		top.Reset(k)
		for _, l := range lists {
			for _, h := range l[qi] {
				top.Push(h.ID, h.Score)
			}
		}
		out[qi] = top.Sorted()
	}
	return out, nil
}

// snapshotSegments captures the current searchable segment set in
// insertion order: frozen segments oldest first, then the growing segment
// when it holds anything.
func (s *SegmentedCollection) snapshotSegments() []*Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	segs := make([]*Collection, 0, len(s.frozen)+1)
	for _, seg := range s.frozen {
		segs = append(segs, seg.col)
	}
	if s.growing.Len() > 0 {
		segs = append(segs, s.growing)
	}
	return segs
}

// Scan visits every stored vector in insertion order until fn returns
// false. The visited slice aliases segment storage — fn must not retain or
// mutate it.
func (s *SegmentedCollection) Scan(fn func(id int64, v mat.Vec) bool) {
	for _, col := range s.snapshotSegments() {
		stop := false
		col.Scan(func(id int64, v mat.Vec) bool {
			stop = !fn(id, v)
			return !stop
		})
		if stop {
			return
		}
	}
}

// Stats aggregates per-segment statistics.
func (s *SegmentedCollection) Stats() Stats {
	st := s.SegmentStats()
	return Stats{
		Name:       s.name,
		Count:      st.SealedVectors + st.GrowingLen,
		Dim:        s.schema.Dim,
		IndexKind:  s.kind,
		RawBytes:   st.RawBytes,
		IndexBytes: st.IndexBytes,
	}
}

// SegmentStats reports the per-state segment breakdown.
func (s *SegmentedCollection) SegmentStats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := SegmentStats{
		Sealed:      s.built,
		Building:    len(s.frozen) - s.built,
		Growing:     1,
		Seals:       s.seals,
		Compactions: s.compactions,
	}
	for _, seg := range s.frozen {
		st := seg.col.Stats()
		out.SealedVectors += st.Count
		out.RawBytes += st.RawBytes
		out.IndexBytes += st.IndexBytes
	}
	st := s.growing.Stats()
	out.GrowingLen = st.Count
	out.RawBytes += st.RawBytes
	return out
}
