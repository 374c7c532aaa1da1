package flat

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

func TestExactOrdering(t *testing.T) {
	rows := ann.NewRows(4)
	rows.Append(1, mat.Vec{1, 0, 0, 0})
	rows.Append(2, mat.Vec{0.9, 0.1, 0, 0})
	rows.Append(3, mat.Vec{0, 1, 0, 0})
	res := New(rows).Search(mat.Vec{1, 0, 0, 0}, 3, ann.Params{})
	if res[0].ID != 1 || res[1].ID != 2 || res[2].ID != 3 {
		t.Fatalf("order = %v", res)
	}
}
