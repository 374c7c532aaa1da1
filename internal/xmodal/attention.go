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
package xmodal

import (
	"math"

	"repro/internal/mat"
)

// mha is one multi-head cross-attention block with output projection.
type mha struct {
	heads int
	wq    *mat.Matrix // D×D, consumed in per-head column blocks
	wk    *mat.Matrix
	wv    *mat.Matrix
	wo    *mat.Matrix
}

func newMHA(dim, heads int, sigma float64, seed uint64) *mha {
	return &mha{
		heads: heads,
		wq:    mat.NearIdentity(dim, sigma, seed^0x71),
		wk:    mat.NearIdentity(dim, sigma, seed^0x72),
		wv:    mat.NearIdentity(dim, sigma, seed^0x73),
		wo:    mat.NearIdentity(dim, sigma, seed^0x74),
	}
}

// apply computes multi-head attention with queries from a and keys/values
// from b, returning a matrix shaped like a. No head is ever copied: Q and
// V heads are column-block views of the projected matrices, K is projected
// straight into head-major order (head h's b.Rows×dh keys are one
// contiguous block, the layout the row-scoring kernels take), and each
// head's output lands directly in its column block of concat. Every
// temporary lives in the arena, so a forward pass is allocation-free in
// steady state.
func (m *mha) apply(ar *mat.Arena, a, b *mat.Matrix) *mat.Matrix {
	dim := a.Cols
	dh := dim / m.heads
	na, nb := a.Rows, b.Rows
	q := mat.MatMulInto(ar.Matrix(na, dim), a, m.wq)
	v := mat.MatMulInto(ar.Matrix(nb, dim), b, m.wv)
	k := ar.Matrix(m.heads*nb, dh)
	scores := ar.Matrix(na, nb)
	concat := ar.Matrix(na, dim)
	scale := float32(1 / math.Sqrt(float64(dh)))
	for h := 0; h < m.heads; h++ {
		c0 := h * dh
		kh := k.Data[h*nb*dh : (h+1)*nb*dh]
		mat.Gemm(kh, dh, b.Data, dim, m.wk.Data[c0:], dim, nb, dh, dim)
		for i := 0; i < na; i++ {
			mat.ScoreRows(scores.Row(i), q.Row(i)[c0:c0+dh], kh, dh)
		}
		scores.ScaleInPlace(scale)
		scores.SoftmaxRows()
		mat.Gemm(concat.Data[c0:], dim, scores.Data, nb, v.Data[c0:], dim, na, dh, nb)
	}
	return mat.MatMulInto(ar.Matrix(na, dim), concat, m.wo)
}

// ffn is a two-layer feed-forward block with GELU.
type ffn struct {
	w1, w2 *mat.Matrix
	// act is the elementwise activation, mat.GELU; a field so the tests
	// can run the same weights under the float64 reference formula.
	act func(mat.Vec) mat.Vec
}

func newFFN(dim int, sigma float64, seed uint64) *ffn {
	return &ffn{
		w1:  mat.NearIdentity(dim, sigma, seed^0x75),
		w2:  mat.NearIdentity(dim, sigma, seed^0x76),
		act: mat.GELU,
	}
}

func (f *ffn) apply(ar *mat.Arena, x *mat.Matrix) *mat.Matrix {
	h := mat.MatMulInto(ar.Matrix(x.Rows, f.w1.Cols), x, f.w1)
	f.act(h.Data)
	return mat.MatMulInto(ar.Matrix(h.Rows, f.w2.Cols), h, f.w2)
}

// enhancerLayer is one feature-enhancer layer: bidirectional cross-attention
// plus feed-forward, each with residual and layer norm.
type enhancerLayer struct {
	i2t *mha // Q=image, K/V=text
	t2i *mha // Q=text, K/V=image
	fi  *ffn
	ft  *ffn
}

func newEnhancerLayer(dim, heads int, sigma float64, seed uint64) *enhancerLayer {
	return &enhancerLayer{
		i2t: newMHA(dim, heads, sigma, seed^0xe1),
		t2i: newMHA(dim, heads, sigma, seed^0xe2),
		fi:  newFFN(dim, sigma, seed^0xe3),
		ft:  newFFN(dim, sigma, seed^0xe4),
	}
}

// attnGate scales the attended delta before the residual addition. Trained
// grounding models learn such gates; a modest fixed gate keeps the layers'
// mixing real while preventing the common-mode text mixture from swamping
// each token's own identity.
const attnGate = 0.15

// residualLN computes LayerNorm(x + gate·delta) row-wise, in place on x.
func residualLN(x, delta *mat.Matrix, gate float32) {
	delta.ScaleInPlace(gate)
	x.AddInPlace(delta)
	for i := 0; i < x.Rows; i++ {
		mat.LayerNorm(x.Row(i), nil, nil)
	}
}

// apply runs the layer, mutating arena-backed copies and returning the
// enhanced pair. The returned matrices live in the arena and stay valid
// until the arena is released.
func (l *enhancerLayer) apply(ar *mat.Arena, xi, xt *mat.Matrix) (*mat.Matrix, *mat.Matrix) {
	ci := ar.Matrix(xi.Rows, xi.Cols)
	copy(ci.Data, xi.Data)
	ct := ar.Matrix(xt.Rows, xt.Cols)
	copy(ct.Data, xt.Data)
	xi, xt = ci, ct
	residualLN(xi, l.i2t.apply(ar, xi, xt), attnGate)
	residualLN(xt, l.t2i.apply(ar, xt, xi), attnGate)
	residualLN(xi, l.fi.apply(ar, xi), attnGate)
	residualLN(xt, l.ft.apply(ar, xt), attnGate)
	return xi, xt
}
