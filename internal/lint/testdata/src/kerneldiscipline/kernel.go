// Corpus for the kerneldiscipline analyzer: loaded by the harness once
// under repro/internal/scratch (where reductions are banned) and once
// each under repro/internal/mat and repro/internal/quant (where the same
// code must pass untouched).
package scratch

// dotBad is the forbidden shape: a serial float32 multiply-accumulate,
// bit-different from the canonical 4-lane kernel order.
func dotBad(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i] // want `hand-rolled float32 multiply-accumulate reduction outside internal/mat`
	}
	return s
}

// dotDirected is the same shape with a documented reason.
func dotDirected(a, b []float32) float32 {
	var s float32
	for i := range a {
		//lovo:kernel-ok reference implementation the property test compares against mat.Dot
		s += a[i] * b[i]
	}
	return s
}

// counting is integer accumulation: associative, allowed anywhere.
func counting(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// sums without a product are not the inner-product shape.
func plainSum(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s
}

// perIteration accumulators declared inside the loop body never cross
// elements, so they are not reductions.
func perIteration(rows [][]float32, w []float32) []float32 {
	out := make([]float32, len(rows))
	for i, r := range rows {
		v := r[0] * w[0]
		v += r[1] * w[1]
		out[i] = v
	}
	return out
}
