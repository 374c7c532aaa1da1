package ivfpq

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ann"
	"repro/internal/ann/flat"
	"repro/internal/mat"
)

// TestInt8StageOneRecall wires Params.Int8 through a built index with raw
// refinement and checks the quantized stage-1 scorer against exact ground
// truth: recall must stay high (the int8 sidecar approximates q·v far
// tighter than residual ADC) and every returned score must be the exact
// float32 inner product.
func TestInt8StageOneRecall(t *testing.T) {
	const n, dim, k, queries = 1500, 24, 10, 30
	rng := rand.New(rand.NewPCG(7, 0x1f8))
	rows := ann.NewRows(dim)
	vecs := make([]mat.Vec, n)
	for i := range vecs {
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
		vecs[i] = v
		rows.Append(int64(i), v)
	}
	oracle := flat.New(rows)
	ix, err := Build(rows, Config{NList: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	raw := map[int64]mat.Vec{}
	for i, v := range vecs {
		raw[int64(i)] = v
	}

	var hit, total int
	for qi := 0; qi < queries; qi++ {
		q := make(mat.Vec, dim)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		exact := oracle.Search(q, k, ann.Params{})
		want := map[int64]bool{}
		for _, s := range exact {
			want[s.ID] = true
		}
		got := ix.Search(q, k, ann.Params{NProbe: 8, Int8: true})
		for _, s := range got {
			if want[s.ID] {
				hit++
			}
			if exactScore := mat.Dot(q, raw[s.ID]); s.Score != exactScore {
				t.Fatalf("query %d id %d: score %v != exact %v", qi, s.ID, s.Score, exactScore)
			}
		}
		total += k
	}
	if recall := float64(hit) / float64(total); recall < 0.85 {
		t.Fatalf("int8 recall@%d = %.3f, want >= 0.85", k, recall)
	}
}

// TestInt8ExhaustiveStaysExact: Exhaustive overrides Int8 — the ablation
// contract (recall 1 over the probed set) must hold bit for bit.
func TestInt8ExhaustiveStaysExact(t *testing.T) {
	const n, dim = 200, 8
	rng := rand.New(rand.NewPCG(11, 0x1f8))
	rows := ann.NewRows(dim)
	for i := 0; i < n; i++ {
		v := make(mat.Vec, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		rows.Append(int64(i), v)
	}
	ix, err := Build(rows, Config{NList: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := make(mat.Vec, dim)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	a := ix.Search(q, 5, ann.Params{Exhaustive: true})
	b := ix.Search(q, 5, ann.Params{Exhaustive: true, Int8: true})
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}
