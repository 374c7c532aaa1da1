package flat

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

func randIndex(t *testing.T, n, dim int, seed uint64) (*Index, []mat.Vec) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xf1a7))
	rows := ann.NewRows(dim)
	var vecs []mat.Vec
	for i := 0; i < n; i++ {
		v := make(mat.Vec, dim)
		var norm float64
		for j := range v {
			v[j] = float32(rng.NormFloat64())
			norm += float64(v[j]) * float64(v[j])
		}
		inv := float32(1 / math.Sqrt(norm))
		for j := range v {
			v[j] *= inv
		}
		rows.Append(int64(i), v)
		vecs = append(vecs, v)
	}
	return New(rows), vecs
}

// TestSearchInt8ExactScoresAndRecall pins the two contracts of the int8
// stage-1 path: every returned score is the EXACT float32 inner product
// (only candidate selection is approximate), and recall@k against the
// exact scan stays high on unit-normalised data.
func TestSearchInt8ExactScoresAndRecall(t *testing.T) {
	const n, dim, k, queries = 2000, 32, 10, 40
	ix, _ := randIndex(t, n, dim, 1)
	rng := rand.New(rand.NewPCG(2, 0xf1a7))
	var hit, total int
	for qi := 0; qi < queries; qi++ {
		q := make(mat.Vec, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		exact := ix.Search(q, k, ann.Params{})
		approx := ix.Search(q, k, ann.Params{Int8: true})
		if len(approx) != k {
			t.Fatalf("query %d: int8 path returned %d results", qi, len(approx))
		}
		want := map[int64]bool{}
		for _, s := range exact {
			want[s.ID] = true
		}
		for _, s := range approx {
			if want[s.ID] {
				hit++
			}
			// Scores must be exact regardless of how the candidate was found.
			r := int(s.ID) // ids are positions in randIndex
			if got, exactScore := s.Score, mat.Dot(q, ix.rows.Row(r)); got != exactScore {
				t.Fatalf("query %d id %d: score %v != exact %v", qi, s.ID, got, exactScore)
			}
		}
		total += k
	}
	if recall := float64(hit) / float64(total); recall < 0.95 {
		t.Fatalf("int8 recall@%d = %.3f, want >= 0.95", k, recall)
	}
}

// TestSearchInt8ExhaustiveIgnoresKnob: exhaustive scans are exact by
// contract, bit-identical to the plain path.
func TestSearchInt8ExhaustiveIgnoresKnob(t *testing.T) {
	ix, _ := randIndex(t, 300, 16, 3)
	q := make(mat.Vec, 16)
	q[0] = 1
	a := ix.Search(q, 7, ann.Params{Exhaustive: true})
	b := ix.Search(q, 7, ann.Params{Int8: true, Exhaustive: true})
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSearchBatchBitIdenticalToSearch: the cross-query batched sweep must
// return byte-identical results to independent Search calls, for both the
// float32 and int8 paths, across ragged row counts.
func TestSearchBatchBitIdenticalToSearch(t *testing.T) {
	for _, n := range []int{1, 5, mat.ScanBlock + 7, 1000} {
		ix, _ := randIndex(t, n, 24, uint64(n))
		rng := rand.New(rand.NewPCG(uint64(n), 0xba7c))
		qs := make([]mat.Vec, 6)
		for j := range qs {
			q := make(mat.Vec, 24)
			for i := range q {
				q[i] = float32(rng.NormFloat64())
			}
			qs[j] = q
		}
		for _, p := range []ann.Params{{}, {Int8: true}} {
			batch := ix.SearchBatch(qs, 9, p)
			for j, q := range qs {
				want := ix.Search(q, 9, p)
				got := batch[j]
				if len(got) != len(want) {
					t.Fatalf("n=%d int8=%v query %d: %d results, want %d", n, p.Int8, j, len(got), len(want))
				}
				for i := range got {
					if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
						t.Fatalf("n=%d int8=%v query %d rank %d: %v vs %v", n, p.Int8, j, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSearchBatchEmpty covers the degenerate shapes.
func TestSearchBatchEmpty(t *testing.T) {
	ix := New(ann.NewRows(4))
	if got := ix.SearchBatch(nil, 5, ann.Params{}); len(got) != 0 {
		t.Fatalf("nil queries: %v", got)
	}
	q := mat.Vec{1, 0, 0, 0}
	got := ix.SearchBatch([]mat.Vec{q, q}, 5, ann.Params{})
	if len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("empty index: %v", got)
	}
}
