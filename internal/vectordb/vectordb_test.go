package vectordb

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

const dim = 16

func unit(seed uint64) mat.Vec { return mat.UnitGaussianVec(dim, seed) }

func fill(t *testing.T, c *Collection, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Insert(int64(i+1), unit(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateAndFetchCollection(t *testing.T) {
	db := New()
	c, err := db.CreateCollection("patches", Schema{Dim: dim, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "patches" || c.schema.Dim != dim {
		t.Fatalf("collection metadata: %+v", c.schema)
	}
	if _, err := db.CreateCollection("patches", Schema{Dim: dim}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := db.CreateCollection("bad", Schema{Dim: 0}); !errors.Is(err, ErrDimension) {
		t.Fatalf("zero-dim create: %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	db := New()
	c, _ := db.CreateCollection("x", Schema{Dim: dim})
	if err := c.Insert(1, mat.Vec{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if err := c.Insert(1, unit(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(1, unit(2)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate id: %v", err)
	}
}

func TestNormalizeOnInsert(t *testing.T) {
	db := New()
	c, _ := db.CreateCollection("x", Schema{Dim: dim, Normalize: true})
	v := mat.Scale(unit(3), 5)
	if err := c.Insert(1, v); err != nil {
		t.Fatal(err)
	}
	got, err := c.Vector(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := mat.Norm(got); n < 0.999 || n > 1.001 {
		t.Fatalf("stored norm = %v", n)
	}
	// The caller's slice must not be mutated.
	if n := mat.Norm(v); n < 4.9 {
		t.Fatalf("caller's vector mutated: %v", n)
	}
}

func TestUnindexedSearchIsExact(t *testing.T) {
	db := New()
	c, _ := db.CreateCollection("x", Schema{Dim: dim, Normalize: true})
	fill(t, c, 200)
	q := unit(50)
	res, err := c.Search(q, 5, ann.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || res[0].ID != 51 { // vector 51 was built from seed 50
		t.Fatalf("res = %v", res)
	}
}

func TestBuildIndexKinds(t *testing.T) {
	for _, kind := range []IndexKind{IndexFlat, IndexIVFPQ, IndexIMI, IndexHNSW} {
		t.Run(string(kind), func(t *testing.T) {
			db := New()
			c, _ := db.CreateCollection("x", Schema{Dim: dim, Normalize: true})
			fill(t, c, 300)
			err := c.BuildIndex(kind, IndexOptions{P: 4, M: 16, NList: 8, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if c.IndexKind() != kind {
				t.Fatalf("kind = %q", c.IndexKind())
			}
			res, err := c.Search(unit(123), 10, ann.Params{NProbe: 8, Ef: 64})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 10 {
				t.Fatalf("got %d results", len(res))
			}
			// Batch vs lone: SearchBatch answers every query exactly as
			// Search does — approximate plans through the index,
			// exhaustive plans as one sweep over the rows that must also
			// equal the oracle (one mat.Dot per row) bit for bit.
			qs := []mat.Vec{unit(123), unit(5), unit(77)}
			for _, p := range []ann.Params{{NProbe: 8, Ef: 64}, {Exhaustive: true}} {
				batch, err := c.SearchBatch(qs, 10, p)
				if err != nil {
					t.Fatal(err)
				}
				for j, q := range qs {
					lone, _ := c.Search(q, 10, p)
					sameHits(t, batch[j], lone, "batch vs lone")
					if p.Exhaustive {
						sameHits(t, lone, oracle(c, q, 10), "exhaustive vs oracle")
					}
				}
			}
			if kind == IndexFlat {
				checkFlatKind(t, c, qs)
				return
			}
			st := c.Stats()
			if st.IndexBytes <= 0 || st.RawBytes <= 0 || st.Count != 300 {
				t.Fatalf("stats = %+v", st)
			}
			// The footprint recorded at build time is the index's own
			// figure.
			if st.IndexBytes != c.index.Memory() {
				t.Fatalf("recorded index bytes %d != index.Memory() %d", st.IndexBytes, c.index.Memory())
			}
		})
	}
}

// checkFlatKind pins the flat kind as the collection's own exact scan:
// Search and SearchBatch, under approximate and exhaustive params alike,
// equal rows.TopK bit for bit, and the collection reports the flat kind
// with no index footprint.
func checkFlatKind(t *testing.T, c *Collection, qs []mat.Vec) {
	t.Helper()
	if c.IndexKind() != IndexFlat {
		t.Fatalf("kind = %q", c.IndexKind())
	}
	if st := c.Stats(); st.IndexBytes != 0 || st.Count != 300 {
		t.Fatalf("flat stats = %+v, want no index bytes", st)
	}
	for _, p := range []ann.Params{{NProbe: 8, Ef: 64}, {Exhaustive: true}} {
		batch, err := c.SearchBatch(qs, 10, p)
		if err != nil {
			t.Fatal(err)
		}
		for j, q := range qs {
			want := c.rows.TopK(q, 10)
			lone, err := c.Search(q, 10, p)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(t, lone, want, "search vs rows.TopK")
			sameHits(t, batch[j], want, "batch vs rows.TopK")
		}
	}
}

func TestBuildIndexErrors(t *testing.T) {
	db := New()
	c, _ := db.CreateCollection("x", Schema{Dim: dim})
	if err := c.BuildIndex(IndexFlat, IndexOptions{}); !errors.Is(err, ErrEmptyBuild) {
		t.Fatalf("empty build: %v", err)
	}
	fill(t, c, 10)
	if err := c.BuildIndex("bogus", IndexOptions{}); err == nil {
		t.Fatal("unknown kind must error")
	}
}

// TestInsertIntoBuiltCollectionRefused: a built collection is a sealed
// segment — its index covers exactly the rows it was built over — so an
// Insert is refused on every kind, the flat kind included, and stores
// nothing.
func TestInsertIntoBuiltCollectionRefused(t *testing.T) {
	for _, kind := range []IndexKind{IndexFlat, IndexIVFPQ, IndexIMI, IndexHNSW} {
		c, _ := New().CreateCollection("x", Schema{Dim: dim, Normalize: true})
		fill(t, c, 150)
		if err := c.BuildIndex(kind, IndexOptions{P: 4, M: 16, NList: 8, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(9999, unit(777)); !errors.Is(err, ErrIndexed) {
			t.Fatalf("%s: insert into a built collection: %v", kind, err)
		}
		if c.Len() != 150 {
			t.Fatalf("%s: a refused insert stored a row: len %d", kind, c.Len())
		}
	}
}

func TestVectorFetch(t *testing.T) {
	db := New()
	c, _ := db.CreateCollection("x", Schema{Dim: dim})
	fill(t, c, 5)
	if _, err := c.Vector(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing vector: %v", err)
	}
	v, err := c.Vector(3)
	if err != nil || len(v) != dim {
		t.Fatalf("fetch: %v %d", err, len(v))
	}
}

func TestSearchValidation(t *testing.T) {
	db := New()
	c, _ := db.CreateCollection("x", Schema{Dim: dim})
	if _, err := c.Search(mat.Vec{1}, 3, ann.Params{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("query dim: %v", err)
	}
	res, err := c.Search(unit(1), 3, ann.Params{})
	if err != nil || res != nil {
		t.Fatalf("empty search: %v %v", res, err)
	}
}

func TestConcurrentInsertAndSearch(t *testing.T) {
	db := New()
	c, _ := db.CreateCollection("x", Schema{Dim: dim, Normalize: true})
	fill(t, c, 100)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Insert(int64(1000+g*100+i), unit(uint64(g*1000+i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Search(unit(uint64(g*7+i)), 5, ann.Params{}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Len() != 300 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestSaveLoadRoundTrip: a threshold-0 store — one segment indexed with the
// base seed, plus post-build inserts in the growing segment — restores with
// the same recipe and answers every kind's approximate and exhaustive
// queries exactly as before.
func TestSaveLoadRoundTrip(t *testing.T) {
	for _, kind := range []IndexKind{IndexFlat, IndexIVFPQ, IndexIMI, IndexHNSW} {
		opts := IndexOptions{NList: 8, P: 4, M: 16, Seed: 4}
		s, err := NewSegmented("patches", Schema{Dim: dim, Normalize: true}, kind, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 220; i++ {
			if i == 200 {
				if err := s.Seal(); err != nil {
					t.Fatal(err)
				}
				if err := s.WaitMaintenance(); err != nil {
					t.Fatal(err)
				}
			}
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
		lk, lopts, lthreshold := loaded.Recipe()
		if lk != kind || lopts != opts || lthreshold != 0 || loaded.Len() != 220 {
			t.Fatalf("%s: loaded recipe %s %+v %d, len %d", kind, lk, lopts, lthreshold, loaded.Len())
		}
		if st := loaded.SegmentStats(); st.Sealed != 1 || st.GrowingLen != 20 {
			t.Fatalf("%s: loaded segments %+v, want 1 sealed and 20 growing", kind, st)
		}
		qs := []mat.Vec{unit(42), unit(205), unit(999)}
		for _, p := range []ann.Params{{NProbe: 8, Ef: 64}, {Exhaustive: true}} {
			a, _ := s.SearchBatch(qs, 10, p)
			b, _ := loaded.SearchBatch(qs, 10, p)
			for j := range qs {
				sameHits(t, b[j], a[j], string(kind)+" before vs after Save→Load")
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadSegmented(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage must not load")
	}
	if _, err := LoadSegmented(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty must not load")
	}
}

func TestStatsShrinkWithQuantization(t *testing.T) {
	// Every vector is resident once, in the collection's rows: RawBytes
	// counts them and IndexBytes — the index's own codes, lists or graph —
	// stays below even one float32 copy of them, on every index kind. The
	// flat kind has no index at all.
	const n, d = 500, 64
	for _, kind := range []IndexKind{IndexFlat, IndexIVFPQ, IndexIMI, IndexHNSW} {
		t.Run(string(kind), func(t *testing.T) {
			c, _ := New().CreateCollection("x", Schema{Dim: d, Normalize: true})
			rng := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < n; i++ {
				v := make(mat.Vec, d)
				for j := range v {
					v[j] = float32(rng.NormFloat64())
				}
				if err := c.Insert(int64(i+1), v); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.BuildIndex(kind, IndexOptions{P: 4, M: 32, Seed: 5}); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			const rowBytes = n * d * 4
			if st.RawBytes != rowBytes+n*8 {
				t.Fatalf("raw bytes %d, want %d", st.RawBytes, rowBytes+n*8)
			}
			if kind == IndexFlat {
				if st.IndexBytes != 0 {
					t.Fatalf("flat index bytes %d, want 0", st.IndexBytes)
				}
				return
			}
			if st.IndexBytes <= 0 || st.IndexBytes >= rowBytes {
				t.Fatalf("index bytes %d must be positive and below one copy of the rows (%d B)", st.IndexBytes, rowBytes)
			}
		})
	}
}

// oracle is the exact top-k by one mat.Dot per stored row.
func oracle(c *Collection, q mat.Vec, k int) []mat.Scored {
	top := mat.NewTopK(k)
	c.Scan(func(id int64, v mat.Vec) bool {
		top.Push(id, mat.Dot(q, v))
		return true
	})
	return top.Sorted()
}
