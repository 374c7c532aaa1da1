package ann_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"repro/internal/ann"
	"repro/internal/ann/hnsw"
	"repro/internal/ann/imi"
	"repro/internal/ann/ivfpq"
	"repro/internal/mat"
)

const dim = 32

// corpus builds n unit vectors clustered around nClusters directions, the
// shape class embeddings actually have.
func corpus(n, nClusters int, seed uint64) ([]int64, []mat.Vec) {
	rng := rand.New(rand.NewPCG(seed, 17))
	centers := make([]mat.Vec, nClusters)
	for i := range centers {
		centers[i] = mat.UnitGaussianVec(dim, uint64(i)+seed*131)
	}
	ids := make([]int64, n)
	vecs := make([]mat.Vec, n)
	for i := 0; i < n; i++ {
		c := centers[i%nClusters]
		v := mat.Clone(c)
		for d := range v {
			v[d] += float32(rng.NormFloat64() * 0.25)
		}
		mat.Normalize(v)
		ids[i] = int64(i + 1)
		vecs[i] = v
	}
	return ids, vecs
}

// rowsOf stores the corpus in a row store.
func rowsOf(t *testing.T, ids []int64, vecs []mat.Vec) *ann.Rows {
	t.Helper()
	rows := ann.NewRows(dim)
	for i := range ids {
		if _, ok := rows.Append(ids[i], vecs[i]); !ok {
			t.Fatalf("duplicate id %d", ids[i])
		}
	}
	return rows
}

// builders construct each index kind over every row of a store. The
// brute-force variant is not among them: it is rows.TopK, the oracle every
// kind is checked against.
var builders = map[string]func(*ann.Rows) (ann.Index, error){
	"ivfpq": func(r *ann.Rows) (ann.Index, error) {
		return ivfpq.Build(r, ivfpq.Config{NList: 16, P: 8, M: 32, Seed: 5})
	},
	"imi": func(r *ann.Rows) (ann.Index, error) { return imi.Build(r, imi.Config{P: 4, M: 32, Seed: 6}) },
	"hnsw": func(r *ann.Rows) (ann.Index, error) {
		return hnsw.New(r, hnsw.Config{M: 12, EfConstruction: 80, Seed: 7}), nil
	},
}

// buildAll constructs every index kind over the corpus, all borrowing the
// returned row store.
func buildAll(t *testing.T, ids []int64, vecs []mat.Vec) (*ann.Rows, map[string]ann.Index) {
	t.Helper()
	rows := rowsOf(t, ids, vecs)
	out := map[string]ann.Index{}
	for kind, build := range builders {
		ix, err := build(rows)
		if err != nil {
			t.Fatal(err)
		}
		out[kind] = ix
	}
	return rows, out
}

// sameResults fails unless a and b match id for id and bit for bit.
func sameResults(t *testing.T, what string, a, b []mat.Scored) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			t.Fatalf("%s: rank %d: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func recallAtK(exact, approx []mat.Scored) float64 {
	want := make(map[int64]bool, len(exact))
	for _, s := range exact {
		want[s.ID] = true
	}
	hit := 0
	for _, s := range approx {
		if want[s.ID] {
			hit++
		}
	}
	if len(exact) == 0 {
		return 1
	}
	return float64(hit) / float64(len(exact))
}

func TestIndexConformance(t *testing.T) {
	ids, vecs := corpus(600, 12, 1)
	_, indexes := buildAll(t, ids, vecs)
	q := mat.Normalized(vecs[37])
	for kind, ix := range indexes {
		t.Run(kind, func(t *testing.T) {
			if ix.Kind() != kind {
				t.Fatalf("kind = %q", ix.Kind())
			}
			if ix.Len() != len(ids) {
				t.Fatalf("len = %d want %d", ix.Len(), len(ids))
			}
			if ix.Memory() <= 0 {
				t.Fatal("memory must be positive")
			}
			res := ix.Search(q, 10, ann.Params{NProbe: 8, Ef: 64})
			if len(res) != 10 {
				t.Fatalf("got %d results", len(res))
			}
			for i := 1; i < len(res); i++ {
				if res[i].Score > res[i-1].Score {
					t.Fatal("results must be sorted descending")
				}
			}
			seen := map[int64]bool{}
			for _, r := range res {
				if seen[r.ID] {
					t.Fatalf("duplicate id %d", r.ID)
				}
				seen[r.ID] = true
			}
			// k=0 and absurd k behave sanely.
			if out := ix.Search(q, 0, ann.Params{}); out != nil {
				t.Fatal("k=0 must return nil")
			}
			if out := ix.Search(q, 10_000, ann.Params{NProbe: 1 << 20, Ef: 1 << 12}); len(out) > len(ids) {
				t.Fatal("cannot return more than stored")
			}
		})
	}
}

func TestSelfRetrieval(t *testing.T) {
	// Every index must return a stored vector as its own top match.
	ids, vecs := corpus(400, 8, 2)
	rows, indexes := buildAll(t, ids, vecs)
	for kind, ix := range indexes {
		hits := 0
		const trials = 25
		for i := 0; i < trials; i++ {
			probe := i * 16
			res := ix.Search(vecs[probe], 1, ann.Params{NProbe: 16, Ef: 96})
			if len(res) == 1 && res[0].ID == ids[probe] {
				hits++
			}
		}
		minHits := trials
		if kind == "ivfpq" || kind == "imi" {
			minHits = trials * 8 / 10 // quantized: near-perfect on clustered data
		}
		if hits < minHits {
			t.Errorf("%s: self-retrieval %d/%d below %d", kind, hits, trials, minHits)
		}
	}
	for i := 0; i < len(ids); i += 16 {
		if res := rows.TopK(vecs[i], 1); len(res) != 1 || res[0].ID != ids[i] {
			t.Fatalf("exact scan: row %d is not its own top match: %v", i, res)
		}
	}
}

func TestApproximateRecallAgainstFlat(t *testing.T) {
	ids, vecs := corpus(800, 16, 3)
	rows, indexes := buildAll(t, ids, vecs)
	queries := make([]mat.Vec, 12)
	for i := range queries {
		q := mat.Clone(vecs[i*60])
		q[0] += 0.05
		queries[i] = mat.Normalize(q)
	}
	for _, kind := range []string{"ivfpq", "imi", "hnsw"} {
		var total float64
		for _, q := range queries {
			exact := rows.TopK(q, 10)
			approx := indexes[kind].Search(q, 10, ann.Params{NProbe: 12, Ef: 96})
			total += recallAtK(exact, approx)
		}
		avg := total / float64(len(queries))
		if avg < 0.7 {
			t.Errorf("%s: recall@10 = %.2f below 0.7", kind, avg)
		}
	}
}

func TestExhaustiveMatchesFlatForIMI(t *testing.T) {
	// Exhaustive IMI is the flat scan itself: it agrees exactly.
	ids, vecs := corpus(300, 6, 4)
	rows, indexes := buildAll(t, ids, vecs)
	q := mat.UnitGaussianVec(dim, 999)
	exact := rows.TopK(q, 5)
	ex := indexes["imi"].Search(q, 5, ann.Params{Exhaustive: true})
	if len(exact) != len(ex) {
		t.Fatalf("lengths differ: %d vs %d", len(exact), len(ex))
	}
	for i := range exact {
		if exact[i].ID != ex[i].ID {
			t.Fatalf("rank %d: flat=%d imi-exhaustive=%d", i, exact[i].ID, ex[i].ID)
		}
	}
}

func TestNProbeTradesRecallForWork(t *testing.T) {
	ids, vecs := corpus(800, 16, 5)
	rows := rowsOf(t, ids, vecs)
	im, err := imi.Build(rows, imi.Config{P: 4, M: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := mat.Normalized(vecs[100])
	exact := rows.TopK(q, 10)
	lo := recallAtK(exact, im.Search(q, 10, ann.Params{NProbe: 1}))
	hi := recallAtK(exact, im.Search(q, 10, ann.Params{NProbe: 32}))
	if hi < lo {
		t.Fatalf("recall must not drop with more probes: lo=%v hi=%v", lo, hi)
	}
	if hi < 0.8 {
		t.Fatalf("high-probe recall too low: %v", hi)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	ids, vecs := corpus(100, 4, 7)
	rows := rowsOf(t, ids, vecs)
	if _, ok := rows.Append(ids[0], vecs[1]); ok {
		t.Fatal("the row store must reject duplicate ids")
	}
	if rows.Len() != len(ids) {
		t.Fatalf("a refused append stored a row: len %d", rows.Len())
	}
	if got, _ := rows.Pos(ids[0]); got != 0 {
		t.Fatalf("a refused append moved id %d to row %d", ids[0], got)
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("the row store must reject wrong dims")
		}
	}()
	ann.NewRows(dim).Append(1, mat.Vec{1, 2})
}

func TestNewRowsPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ann.NewRows(0)
}

func TestRowsAppendAndRow(t *testing.T) {
	rows := ann.NewRows(2)
	v := mat.Vec{0.5, 0.5}
	row, ok := rows.Append(5, v)
	v[0] = 9 // the store holds a copy
	if !ok || row != 0 || rows.Len() != 1 || rows.ID(0) != 5 {
		t.Fatalf("append: row %d ok %v len %d", row, ok, rows.Len())
	}
	if got := rows.Row(0); got[0] != 0.5 || got[1] != 0.5 {
		t.Fatalf("row = %v", got)
	}
	if pos, ok := rows.Pos(5); !ok || pos != 0 {
		t.Fatalf("pos = %d, %v", pos, ok)
	}
	if _, ok := rows.Pos(6); ok {
		t.Fatal("absent id found")
	}
	if rows.Bytes() != 2*4+8 {
		t.Fatalf("bytes = %d", rows.Bytes())
	}
}

// TestTopKBatchMatchesTopK: the batched sweep answers every query exactly
// as a lone TopK does, and both equal one mat.Dot per row into a heap.
func TestTopKBatchMatchesTopK(t *testing.T) {
	for _, n := range []int{1, 5, mat.ScanBlock + 7, 1000} {
		ids, vecs := corpus(n, 7, uint64(n))
		rows := rowsOf(t, ids, vecs)
		qs := make([]mat.Vec, 11) // more than a serving batch
		for j := range qs {
			qs[j] = mat.UnitGaussianVec(dim, uint64(100+j))
		}
		batch := rows.TopKBatch(qs, 9)
		for j, q := range qs {
			oracle := mat.NewTopK(9)
			for i := range ids {
				oracle.Push(ids[i], mat.Dot(q, vecs[i]))
			}
			sameResults(t, "oracle vs TopK", oracle.Sorted(), rows.TopK(q, 9))
			sameResults(t, "TopK vs TopKBatch", rows.TopK(q, 9), batch[j])
		}
	}
	if got := ann.NewRows(dim).TopKBatch([]mat.Vec{mat.NewVec(dim)}, 3); len(got) != 1 || got[0] != nil {
		t.Fatalf("empty store: %v", got)
	}
}

// TestTopKSelectionMatchesHeap: the exact scan's buffered selection keeps
// exactly the canonical top-k a mat.TopK heap retains, bit for bit, at every
// depth around the store size and every batch width a serving batch uses.
// Rows repeat a handful of vectors under shuffled ids (and one query is
// zero), so most scores tie and the id tie-break decides the cut.
func TestTopKSelectionMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 29))
	for _, n := range []int{1, 2, 9, 64, mat.ScanBlock + 3, 700} {
		distinct := make([]mat.Vec, 1+n/8)
		for i := range distinct {
			distinct[i] = mat.UnitGaussianVec(dim, uint64(n*1000+i))
		}
		ids := make([]int64, n)
		vecs := make([]mat.Vec, n)
		for i, p := range rng.Perm(n) {
			ids[i] = int64(p)*7919 - 3*int64(n)
			vecs[i] = distinct[rng.IntN(len(distinct))]
		}
		rows := rowsOf(t, ids, vecs)
		for _, k := range []int{1, max(n/7, 1), max(n-1, 1), n, n + 1, 3 * n} {
			for width := 1; width <= 9; width++ {
				qs := make([]mat.Vec, width)
				for j := range qs {
					qs[j] = mat.UnitGaussianVec(dim, uint64(7*n+31*k+j))
				}
				qs[width-1] = mat.NewVec(dim)
				for j, got := range rows.TopKBatch(qs, k) {
					heap := mat.NewTopK(k)
					for i := range ids {
						heap.Push(ids[i], mat.Dot(qs[j], vecs[i]))
					}
					sameResults(t, fmt.Sprintf("n=%d k=%d width=%d query %d", n, k, width, j), heap.Sorted(), got)
				}
			}
		}
	}
}

// TestTopKBatchBeatsLoneScans is CI's bench-smoke gate: one TopKBatch sweep
// at Q=8 over rows that outgrow the cache must outrun 8 lone TopK scans of
// the same rows. It measures, so it only runs when LOVO_BENCH_SMOKE=1 (a
// dedicated CI step on a quiet runner); the margin sits below the
// 1.40–1.50x measured at this size, and best-of-3 damps scheduler noise
// without hiding a real regression to parity.
func TestTopKBatchBeatsLoneScans(t *testing.T) {
	if os.Getenv("LOVO_BENCH_SMOKE") != "1" {
		t.Skip("set LOVO_BENCH_SMOKE=1 to run the bench-smoke gate")
	}
	const (
		n      = 131072
		qn     = 8
		k      = 100
		margin = 1.15
	)
	rows := ann.NewRows(dim)
	for i := 0; i < n; i++ {
		rows.Append(int64(i), mat.UnitGaussianVec(dim, uint64(i)))
	}
	qs := make([]mat.Vec, qn)
	for j := range qs {
		qs[j] = mat.UnitGaussianVec(dim, uint64(n+j))
	}
	best := 0.0
	for attempt := 0; attempt < 3 && best < margin; attempt++ {
		lone := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					rows.TopK(q, k)
				}
			}
		})
		batch := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows.TopKBatch(qs, k)
			}
		})
		speedup := float64(lone.NsPerOp()) / float64(batch.NsPerOp())
		t.Logf("attempt %d: TopKBatch at Q=%d %.2fx over %d lone TopK scans", attempt+1, qn, speedup, qn)
		best = max(best, speedup)
	}
	if best < margin {
		t.Fatalf("batched sweep best-of-3 = %.2fx, want >= %.2fx over %d lone scans", best, margin, qn)
	}
}

func TestIMICellCount(t *testing.T) {
	ids, vecs := corpus(500, 10, 8)
	im, err := imi.Build(rowsOf(t, ids, vecs), imi.Config{P: 4, M: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	cells := im.CellCount()
	if cells <= 1 || cells > 500 {
		t.Fatalf("cells = %d", cells)
	}
}

func TestEmptyIndexSearches(t *testing.T) {
	if res := ann.NewRows(dim).TopK(mat.NewVec(dim), 5); res != nil {
		t.Fatal("empty exact scan must be nil")
	}
	hn := hnsw.New(ann.NewRows(dim), hnsw.Config{})
	if res := hn.Search(mat.NewVec(dim), 5, ann.Params{}); res != nil {
		t.Fatal("empty hnsw search must be nil")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := imi.Build(ann.NewRows(dim), imi.Config{}); err == nil {
		t.Fatal("empty imi build must error")
	}
	if _, err := ivfpq.Build(ann.NewRows(dim), ivfpq.Config{}); err == nil {
		t.Fatal("empty ivfpq build must error")
	}
}

// BenchmarkRowsTopKBatch is one stage-1 leg of a serving batch: Q
// exhaustive queries at depth k = 100 over 9k rows of dimension 32, in one
// shared sweep. Q = 1 is a lone TopK scan, the flat kind's whole stage 1.
func BenchmarkRowsTopKBatch(b *testing.B) {
	const n, k = 9000, 100
	rows := ann.NewRows(dim)
	for i := 0; i < n; i++ {
		rows.Append(int64(i), mat.UnitGaussianVec(dim, uint64(i)))
	}
	for _, qn := range []int{1, 2, 4, 8} {
		qs := make([]mat.Vec, qn)
		for j := range qs {
			qs[j] = mat.UnitGaussianVec(dim, uint64(n+j))
		}
		b.Run(fmt.Sprintf("Q=%d", qn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if qn == 1 {
					rows.TopK(qs[0], k)
				} else {
					rows.TopKBatch(qs, k)
				}
			}
		})
	}
}
