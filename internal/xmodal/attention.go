// Package xmodal implements the cross-modality transformer used by the
// rerank stage (Section VI-B, Fig. 5): a feature enhancer whose
// image-to-text and text-to-image cross-attention layers align the two
// modalities, followed by a decoder that grounds the query in candidate
// boxes.
//
// The attention arithmetic is real — multi-head projections, scaled dot
// products, softmax, residuals, layer norm — with deterministic
// residual-dominant weights (near-identity plus seeded noise), so the layers
// propagate and mix semantic signal the way a trained grounding model's do
// without requiring training. Image region tokens carry fine-grained
// features (attributes, relations, neighbour context, box position) that the
// fast-search index cannot represent; this asymmetry is exactly why rerank
// recovers the complex-query accuracy the ablation (Table IV) attributes
// to it.
//
// A leg's candidate frames go through ONE forward pass
// (Model.GroundFrames): every frame's region tokens are rows of one
// stacked matrix, a row segment per frame, so the per-token maps — the
// Q/K/V/O projections, both feed-forward blocks and the residual layer
// norms — run once over the stack as GEMMs with many rows instead of one
// small GEMM per frame. Attention stays block-diagonal: scores, softmax
// and scores·V run per frame on that frame's segments, so no frame sees
// another's tokens. The first layer's text side is frame-independent —
// the image-to-text keys and values and the text-to-image queries see
// only the query's raw tokens — so it is computed once per pass, and the
// text side becomes one block of rows per frame only at the
// text-to-image residual. Every output element of mat.Gemm adds its
// products in increasing k whatever the row count, so a frame's
// groundings are bit-identical whether it is grounded alone or in a
// stack of any size, on every kernel tier.
package xmodal

import (
	"math"

	"repro/internal/mat"
)

// The layers' fixed shape: every block has heads attention heads, and
// every weight matrix is the identity perturbed by Gaussian noise of σ
// weightNoise.
const (
	heads       = 4
	weightNoise = 0.02
)

// mha is one multi-head cross-attention block with output projection.
type mha struct {
	wq *mat.Matrix // D×D, consumed in per-head column blocks
	wk *mat.Matrix
	wv *mat.Matrix
	wo *mat.Matrix
}

func newMHA(dim int, seed uint64) *mha {
	return &mha{
		wq: mat.NearIdentity(dim, weightNoise, seed^0x71),
		wk: mat.NearIdentity(dim, weightNoise, seed^0x72),
		wv: mat.NearIdentity(dim, weightNoise, seed^0x73),
		wo: mat.NearIdentity(dim, weightNoise, seed^0x74),
	}
}

// seg is one frame's rows in a stacked matrix: rows [off, off+n).
type seg struct{ off, n int }

// apply computes multi-head attention for a stack of frames: frame f's
// queries — rows as[f] of a — attend over its keys and values, rows bs[f]
// of b, and nothing else, so attention is block-diagonal however many
// frames share the stack. The per-token maps (the Q/K/V/O projections)
// run once over the whole stack; only the scores, softmax and scores·V
// run per frame. Frame f's output rows follow frame f−1's in the result,
// one per query row. Segments may overlap: the hoisted layer-1 text side
// is one block of rows that every frame's segment names.
//
// No head is ever copied: Q and V heads are column-block views of the
// projected matrices, K is projected straight into head-major order (head
// h's b.Rows×dh keys are one contiguous block, so a frame's keys for head
// h are too — the layout the row-scoring kernels take), and each head's
// output lands directly in its column block of concat. Gemm adds every
// element's products in increasing k whatever the row count, so a row of
// the stack gets the bits it would get alone. Every temporary lives in
// the arena, so a forward pass is allocation-free in steady state.
func (m *mha) apply(ar *mat.Arena, a *mat.Matrix, as []seg, b *mat.Matrix, bs []seg) *mat.Matrix {
	dim := a.Cols
	dh := dim / heads
	nb := b.Rows
	var rows, maxA, maxB int
	for f := range as {
		rows += as[f].n
		maxA, maxB = max(maxA, as[f].n), max(maxB, bs[f].n)
	}
	q := mat.MatMulInto(ar.MatrixUninit(a.Rows, dim), a, m.wq)
	v := mat.MatMulInto(ar.MatrixUninit(nb, dim), b, m.wv)
	k := ar.MatrixUninit(heads*nb, dh)
	for h := 0; h < heads; h++ {
		mat.Gemm(k.Data[h*nb*dh:(h+1)*nb*dh], dh, b.Data, dim, m.wk.Data[h*dh:], dim, nb, dh, dim)
	}
	scores := ar.MatrixUninit(maxA, maxB).Data
	concat := ar.MatrixUninit(rows, dim)
	if heads*dh != dim {
		clear(concat.Data) // columns no head writes
	}
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := 0
	for f, sa := range as {
		sb := bs[f]
		sc := scores[:sa.n*sb.n]
		for h := 0; h < heads; h++ {
			c0 := h * dh
			kh := k.Data[(h*nb+sb.off)*dh : (h*nb+sb.off+sb.n)*dh]
			for i := 0; i < sa.n; i++ {
				row := sc[i*sb.n : (i+1)*sb.n]
				mat.ScoreRows(row, q.Row(sa.off + i)[c0:c0+dh], kh, dh)
				mat.Scale(row, scale)
				mat.Softmax(row)
			}
			mat.Gemm(concat.Data[out*dim+c0:], dim, sc, sb.n, v.Data[sb.off*dim+c0:], dim, sa.n, dh, sb.n)
		}
		out += sa.n
	}
	return mat.MatMulInto(ar.MatrixUninit(rows, dim), concat, m.wo)
}

// ffn is a two-layer feed-forward block with GELU.
type ffn struct {
	w1, w2 *mat.Matrix
	// act is the elementwise activation, mat.GELU; a field so the tests
	// can run the same weights under the float64 reference formula.
	act func(mat.Vec) mat.Vec
}

func newFFN(dim int, seed uint64) *ffn {
	return &ffn{
		w1:  mat.NearIdentity(dim, weightNoise, seed^0x75),
		w2:  mat.NearIdentity(dim, weightNoise, seed^0x76),
		act: mat.GELU,
	}
}

// apply runs the block over every row of x, a whole stack at once.
func (f *ffn) apply(ar *mat.Arena, x *mat.Matrix) *mat.Matrix {
	h := mat.MatMulInto(ar.MatrixUninit(x.Rows, f.w1.Cols), x, f.w1)
	f.act(h.Data)
	return mat.MatMulInto(ar.MatrixUninit(h.Rows, f.w2.Cols), h, f.w2)
}

// enhancerLayer is one feature-enhancer layer: bidirectional cross-attention
// plus feed-forward, each with residual and layer norm.
type enhancerLayer struct {
	i2t *mha // Q=image, K/V=text
	t2i *mha // Q=text, K/V=image
	fi  *ffn
	ft  *ffn
}

func newEnhancerLayer(dim int, seed uint64) *enhancerLayer {
	return &enhancerLayer{
		i2t: newMHA(dim, seed^0xe1),
		t2i: newMHA(dim, seed^0xe2),
		fi:  newFFN(dim, seed^0xe3),
		ft:  newFFN(dim, seed^0xe4),
	}
}

// attnGate scales the attended delta before the residual addition. Trained
// grounding models learn such gates; a modest fixed gate keeps the layers'
// mixing real while preventing the common-mode text mixture from swamping
// each token's own identity.
const attnGate = 0.15

// apply runs the layer over a stack: xi holds every frame's region tokens
// (frame f at rows is[f]), xt the text tokens (frame f at rows ts[f]). It
// updates both in place and returns the text side, which is a new
// matrix when xt came in as the one block of the query's raw tokens that
// every frame shares: the image-to-text keys and values and the
// text-to-image queries then run once for the whole stack, and the text
// side becomes one block per frame only at the text-to-image residual.
func (l *enhancerLayer) apply(ar *mat.Arena, xi *mat.Matrix, is []seg, xt *mat.Matrix, ts []seg) *mat.Matrix {
	residualLN(xi, l.i2t.apply(ar, xi, is, xt, ts), attnGate)
	delta := l.t2i.apply(ar, xt, ts, xi, is)
	if delta.Rows != xt.Rows { // shared text: one copy per frame from here on
		perFrame := ar.MatrixUninit(delta.Rows, xt.Cols)
		for r := 0; r < delta.Rows; r += xt.Rows {
			copy(perFrame.Data[r*xt.Cols:], xt.Data)
		}
		xt = perFrame
	}
	residualLN(xt, delta, attnGate)
	residualLN(xi, l.fi.apply(ar, xi), attnGate)
	residualLN(xt, l.ft.apply(ar, xt), attnGate)
	return xt
}

// residualLN computes LayerNorm(x + float32(delta·gate)) row by row, in
// place on x, bit-identical to scaling delta, adding it and running
// mat.LayerNorm (no gain, no bias) on each row: one pass per row folds the
// gated residual into the mean's reduction, and four rows go through
// each pass together so their serial sums — every row keeps its own
// element order — overlap instead of waiting on one another.
func residualLN(x, delta *mat.Matrix, gate float32) {
	n := x.Cols
	r := 0
	for ; r+4 <= x.Rows; r += 4 {
		residualLN4(x.Data[r*n:(r+4)*n], delta.Data[r*n:(r+4)*n], n, gate)
	}
	for ; r < x.Rows; r++ {
		residualLN1(x.Row(r), delta.Row(r), gate)
	}
}

// layerNormEps is mat.LayerNorm's variance epsilon.
const layerNormEps = 1e-5

// residualLN1 is residualLN on one row.
func residualLN1(x, d []float32, gate float32) {
	if len(x) == 0 {
		return
	}
	d = d[:len(x)]
	var mean float32
	for i, dv := range d {
		v := x[i] + float32(dv*gate)
		x[i] = v
		mean += v
	}
	mean /= float32(len(x))
	var varsum float32
	for _, v := range x {
		dv := v - mean
		//lovo:kernel-ok mat.LayerNorm's serial variance sum, reproduced bit for bit; not an inner product over scored data
		varsum += float32(dv * dv)
	}
	inv := 1 / float32(math.Sqrt(float64(varsum/float32(len(x))+layerNormEps)))
	for i, v := range x {
		x[i] = float32((v - mean) * inv)
	}
}

// residualLN4 is residualLN on four consecutive rows of width n.
func residualLN4(x, d []float32, n int, gate float32) {
	if n == 0 {
		return
	}
	x0, x1, x2, x3 := x[:n:n], x[n:2*n:2*n], x[2*n:3*n:3*n], x[3*n:4*n:4*n]
	d0, d1, d2, d3 := d[:n:n], d[n:2*n:2*n], d[2*n:3*n:3*n], d[3*n:4*n:4*n]
	var m0, m1, m2, m3 float32
	for i := range x0 {
		v0 := x0[i] + float32(d0[i]*gate)
		v1 := x1[i] + float32(d1[i]*gate)
		v2 := x2[i] + float32(d2[i]*gate)
		v3 := x3[i] + float32(d3[i]*gate)
		x0[i], x1[i], x2[i], x3[i] = v0, v1, v2, v3
		m0 += v0
		m1 += v1
		m2 += v2
		m3 += v3
	}
	fn := float32(n)
	m0 /= fn
	m1 /= fn
	m2 /= fn
	m3 /= fn
	var s0, s1, s2, s3 float32
	for i := range x0 {
		e0, e1, e2, e3 := x0[i]-m0, x1[i]-m1, x2[i]-m2, x3[i]-m3
		s0 += float32(e0 * e0) //lovo:kernel-ok this line and the next: rows 0 and 1's serial variance sums, as in residualLN1
		s1 += float32(e1 * e1)
		s2 += float32(e2 * e2) //lovo:kernel-ok this line and the next: rows 2 and 3's serial variance sums, as in residualLN1
		s3 += float32(e3 * e3)
	}
	i0 := 1 / float32(math.Sqrt(float64(s0/fn+layerNormEps)))
	i1 := 1 / float32(math.Sqrt(float64(s1/fn+layerNormEps)))
	i2 := 1 / float32(math.Sqrt(float64(s2/fn+layerNormEps)))
	i3 := 1 / float32(math.Sqrt(float64(s3/fn+layerNormEps)))
	for i := range x0 {
		x0[i] = float32((x0[i] - m0) * i0)
		x1[i] = float32((x1[i] - m1) * i1)
		x2[i] = float32((x2[i] - m2) * i2)
		x3[i] = float32((x3[i] - m3) * i3)
	}
}
