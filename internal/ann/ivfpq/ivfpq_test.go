package ivfpq

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

const dim = 16

func build(t *testing.T, n int, cfg Config) *Index {
	t.Helper()
	rows := ann.NewRows(dim)
	for i := 0; i < n; i++ {
		rows.Append(int64(i+1), mat.UnitGaussianVec(dim, uint64(i)))
	}
	ix, err := Build(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestListsPartitionVectors(t *testing.T) {
	ix := build(t, 400, Config{NList: 12, P: 4, M: 16, Seed: 2})
	if ix.Lists() != 12 {
		t.Fatalf("lists = %d", ix.Lists())
	}
	total := 0
	for _, l := range ix.lists {
		total += len(l.rows)
	}
	if total != 400 {
		t.Fatalf("list entries = %d, want 400", total)
	}
}

func TestDefaultNListSqrt(t *testing.T) {
	ix := build(t, 100, Config{P: 4, M: 16, Seed: 3})
	if ix.Lists() != 10 {
		t.Fatalf("default NList = %d, want sqrt(100)=10", ix.Lists())
	}
}

func TestResidualCodingRecovers(t *testing.T) {
	// The exactly refined search must put the query's own vector first
	// under generous probing.
	ix := build(t, 300, Config{NList: 8, P: 4, M: 16, Seed: 4})
	hits := 0
	for i := 0; i < 20; i++ {
		q := mat.UnitGaussianVec(dim, uint64(i*15))
		res := ix.Search(q, 1, ann.Params{NProbe: 8})
		if len(res) == 1 && res[0].ID == int64(i*15+1) {
			hits++
		}
	}
	if hits < 18 {
		t.Fatalf("self-retrieval %d/20", hits)
	}
}

func TestNProbeDefaultsApplied(t *testing.T) {
	ix := build(t, 200, Config{NList: 8, P: 4, M: 8, Seed: 5})
	res := ix.Search(mat.UnitGaussianVec(dim, 7), 5, ann.Params{})
	if len(res) == 0 {
		t.Fatal("default nprobe must return results")
	}
}
