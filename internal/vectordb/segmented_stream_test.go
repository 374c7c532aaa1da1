package vectordb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

// sameHits asserts two result lists are byte-identical: same IDs in the
// same order with bitwise-equal scores.
func sameHits(t *testing.T, a, b []mat.Scored, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d hits vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			t.Fatalf("%s: rank %d: (%d, %x) vs (%d, %x)",
				label, i, a[i].ID, math.Float32bits(a[i].Score), b[i].ID, math.Float32bits(b[i].Score))
		}
	}
}

// TestSealDoesNotBlockQueries pins the ISSUE 10 bugfix: the Insert that
// crosses SealThreshold must return without paying for the index build,
// and queries must keep answering while a (blocked) seal is in flight.
// Before the fix both stalled on the collection write lock for the whole
// build.
func TestSealDoesNotBlockQueries(t *testing.T) {
	s := newSeg(t, 50)
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s.buildHook = func() {
		entered <- struct{}{}
		<-release
	}
	// The 50th insert seals; it must return with the build still pending.
	for i := 0; i < 50; i++ {
		if err := s.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // the background build is now parked inside the hook

	// Queries answer from the exact-scan fallback while the seal builds.
	res, err := s.Search(unit(10), 1, ann.Params{NProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 11 {
		t.Fatalf("search during seal: got %v", res)
	}
	// Inserts proceed too — the growing segment is fresh.
	if err := s.Insert(51, unit(50)); err != nil {
		t.Fatal(err)
	}
	if st := s.SegmentStats(); st.Sealed != 0 || st.Building != 1 || st.GrowingLen != 1 {
		t.Fatalf("mid-seal segments = %+v", st)
	}
	close(release)
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	st := s.SegmentStats()
	if st.Sealed != 1 || st.Building != 0 || st.IndexBytes <= 0 {
		t.Fatalf("post-seal stats = %+v", st)
	}
	// The index the background build installed answers correctly.
	res, err = s.Search(unit(10), 1, ann.Params{NProbe: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 11 {
		t.Fatalf("search after seal: got %v", res)
	}
}

// TestSegmentedSearchBatchMatchesSearch: with a sealed, a building (its
// build parked in buildHook) and a growing segment all live, SearchBatch
// answers every query bit for bit as a lone Search does, on every index
// kind, approximate and exhaustive.
func TestSegmentedSearchBatchMatchesSearch(t *testing.T) {
	qs := make([]mat.Vec, 9)
	for i := range qs {
		qs[i] = unit(uint64(5000 + i))
	}
	for _, kind := range []IndexKind{IndexFlat, IndexIVFPQ, IndexIMI, IndexHNSW} {
		t.Run(string(kind), func(t *testing.T) {
			s, err := NewSegmented("patches", Schema{Dim: dim, Normalize: true}, kind,
				IndexOptions{NList: 8, P: 4, M: 16, Seed: 9}, 60)
			if err != nil {
				t.Fatal(err)
			}
			insert := func(from, to int) {
				for i := from; i < to; i++ {
					if err := s.Insert(int64(i+1), unit(uint64(i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			insert(0, 120) // two sealed segments
			if err := s.WaitMaintenance(); err != nil {
				t.Fatal(err)
			}
			entered, release := make(chan struct{}), make(chan struct{})
			s.mu.Lock()
			s.buildHook = func() {
				close(entered)
				<-release
			}
			s.mu.Unlock()
			insert(120, 180) // the third seal's build parks in the hook
			<-entered
			insert(180, 205) // 25 growing
			if st := s.SegmentStats(); st.Sealed != 2 || st.Building != 1 || st.GrowingLen != 25 {
				t.Fatalf("segment states = %+v, want 2 sealed, 1 building, 25 growing", st)
			}
			for _, p := range []ann.Params{{NProbe: 4, Ef: 24}, {Exhaustive: true}} {
				batch, err := s.SearchBatch(qs, 10, p)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					lone, err := s.Search(q, 10, p)
					if err != nil {
						t.Fatal(err)
					}
					sameHits(t, batch[i], lone, fmt.Sprintf("%+v query %d", p, i))
				}
			}
			close(release)
			if err := s.WaitMaintenance(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// maintOps is a collection's maintenance log projected onto what must not
// depend on timing: the seal builds in order, then the compactions in
// order. (How the two kinds interleave depends on how far the background
// worker lags the inserts.)
func maintOps(s *SegmentedCollection) []string {
	var seals, compacts []string
	for _, ev := range s.MaintLog() {
		op := fmt.Sprintf("%s segments=%d vectors=%d err=%q", ev.Op, ev.Segments, ev.Vectors, ev.Err)
		if ev.Op == "seal" {
			seals = append(seals, op)
		} else {
			compacts = append(compacts, op)
		}
	}
	return append(seals, compacts...)
}

// TestCompactReplicaConvergence pins the seed-derivation bugfix on the
// background policy: two equal-seeded replicas that compact at different
// points in their ingest history must end with the same segment structure
// and byte-identical approximate indexes. Replica A waits out maintenance
// between ingest chunks, so it compacts mid-history; replica B ingests
// everything and only then waits. Were a compaction seed to depend on the
// mutable segment sequence counter, the replicas would silently diverge.
func TestCompactReplicaConvergence(t *testing.T) {
	a, b := newSeg(t, 20), newSeg(t, 20)
	vecs := make([]mat.Vec, 330)
	for i := range vecs {
		vecs[i] = unit(uint64(i))
	}
	insert := func(s *SegmentedCollection, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Insert(int64(i+1), vecs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, chunk := range [][2]int{{0, 100}, {100, 230}, {230, 330}} {
		insert(a, chunk[0], chunk[1])
		if err := a.WaitMaintenance(); err != nil {
			t.Fatal(err)
		}
		if chunk[0] == 0 && a.SegmentStats().Compactions == 0 {
			t.Fatal("replica A must compact mid-history")
		}
	}
	insert(b, 0, len(vecs))
	if err := b.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	// 16 seals of 20 merge 4-at-a-time into 4 segments, then into one; the
	// last 10 vectors stay growing.
	stA, stB := a.SegmentStats(), b.SegmentStats()
	if stA != stB {
		t.Fatalf("segment stats diverge:\n A: %+v\n B: %+v", stA, stB)
	}
	if stA.Seals != 16 || stA.Compactions != 5 || stA.Sealed != 1 || stA.Building != 0 || stA.GrowingLen != 10 {
		t.Fatalf("segment stats = %+v", stA)
	}
	if opsA, opsB := maintOps(a), maintOps(b); !reflect.DeepEqual(opsA, opsB) {
		t.Fatalf("maintenance ops diverge:\n A: %q\n B: %q", opsA, opsB)
	}
	// Approximate answers (not just exact ones) must agree bit-for-bit.
	for probe := 0; probe < 20; probe++ {
		q := unit(uint64(1000 + probe))
		ha, err := a.Search(q, 10, ann.Params{NProbe: 4})
		if err != nil {
			t.Fatal(err)
		}
		hb, err := b.Search(q, 10, ann.Params{NProbe: 4})
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, ha, hb, "replica approximate answers")
	}
}

// TestTieredCompactionPolicy pins the size-tiered background policy: it
// merges built segments as they accumulate, and the resulting structure is
// the deterministic fixpoint of the ingest history.
func TestTieredCompactionPolicy(t *testing.T) {
	s := newSeg(t, 20)
	for i := 0; i < 16*20; i++ {
		if err := s.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	st := s.SegmentStats()
	if st.Seals != 16 {
		t.Fatalf("seals = %d, want 16", st.Seals)
	}
	// 16 tier-0 seals merge 4-at-a-time into 4 tier-1 segments, which merge
	// into one tier-2 segment: 5 compactions, 1 surviving segment.
	if st.Compactions != 5 {
		t.Fatalf("compactions = %d, want 5", st.Compactions)
	}
	if st.Sealed != 1 || st.Building != 0 {
		t.Fatalf("segments = %+v, want 1 sealed", st)
	}
	if s.Len() != 320 {
		t.Fatalf("len = %d", s.Len())
	}
	// Everything is still findable through the merged index.
	for _, probe := range []int{0, 100, 319} {
		res, err := s.Search(unit(uint64(probe)), 1, ann.Params{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != int64(probe+1) {
			t.Fatalf("probe %d: got %v", probe, res)
		}
	}
	// The maintenance log recorded both kinds of operation with spans.
	var seals, compacts int
	for _, ev := range s.MaintLog() {
		switch ev.Op {
		case "seal":
			seals++
		case "compact":
			compacts++
		}
		if len(ev.Spans) == 0 || ev.Spans[0].Dur <= 0 {
			t.Fatalf("maintenance event %q has no timed root span: %+v", ev.Op, ev)
		}
	}
	if seals == 0 || compacts != 5 {
		t.Fatalf("maint log: %d seal, %d compact events", seals, compacts)
	}
}

// TestSegmentedChaos drives concurrent Insert/Seal/Search — with background
// builds and compactions racing them — under the race detector, then pins
// the exact-search bit-identity contract against a batch-built monolith
// after quiesce.
func TestSegmentedChaos(t *testing.T) {
	s := newSeg(t, 64)
	const (
		writers   = 4
		perWriter = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*2+2)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Insert(int64(g*perWriter+i+1), unit(uint64(g*perWriter+i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := s.Search(unit(uint64(i)), 5, ann.Params{NProbe: 8}); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Seal(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	total := writers * perWriter
	if s.Len() != total {
		t.Fatalf("len = %d, want %d", s.Len(), total)
	}

	db := New()
	mono, _ := db.CreateCollection("mono", Schema{Dim: dim, Normalize: true})
	for i := 0; i < total; i++ {
		if err := mono.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for probe := 0; probe < 25; probe++ {
		q := unit(uint64(5000 + probe))
		segHits, err := s.Search(q, 10, ann.Params{Exhaustive: true})
		if err != nil {
			t.Fatal(err)
		}
		monoHits, err := mono.Search(q, 10, ann.Params{})
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, segHits, monoHits, "post-quiesce exact search")
	}
}

// TestSegmentedSaveLoadMidStream pins the streaming snapshot round-trip: a
// snapshot taken mid-stream (background builds possibly in flight,
// growing segment non-empty) restores a collection with the same segment
// identities — and therefore byte-identical answers, approximate included.
func TestSegmentedSaveLoadMidStream(t *testing.T) {
	s := newSeg(t, 50)
	for i := 0; i < 170; i++ {
		if err := s.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSegmented(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", loaded.Len(), s.Len())
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	got, want := loaded.SegmentStats(), s.SegmentStats()
	if got.Sealed != want.Sealed || got.Building != want.Building || got.GrowingLen != want.GrowingLen {
		t.Fatalf("segments = %+v, want %+v", got, want)
	}
	for probe := 0; probe < 10; probe++ {
		q := unit(uint64(2000 + probe))
		for _, p := range []ann.Params{{Exhaustive: true}, {NProbe: 4}} {
			want, err := s.Search(q, 5, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Search(q, 5, p)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(t, got, want, "restored answers")
		}
	}
	// The restored collection keeps streaming: duplicates still rejected,
	// the seal sequence continues without identity collisions.
	if err := loaded.Insert(3, unit(999)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("post-load duplicate: %v", err)
	}
	for i := 170; i < 260; i++ {
		if err := loaded.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := loaded.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 260 {
		t.Fatalf("post-load len = %d", loaded.Len())
	}
}
