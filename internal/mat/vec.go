// Package mat provides the small dense linear-algebra kernel used across the
// repository: float32 vectors and matrices, similarity primitives, and the
// neural-network building blocks (softmax, layer normalisation, activations)
// needed by the encoders and the cross-modality transformer.
//
// Everything operates on plain slices so callers can alias into larger
// buffers; no function retains its arguments.
package mat

import (
	"fmt"
	"math"
)

// Vec is a dense float32 vector. The zero value is an empty vector.
type Vec = []float32

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Dot returns the inner product of a and b, accumulated in the canonical
// serial element order (see kernels.go). It panics if the lengths differ.
func Dot(a, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dotKernel(a, b)
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v Vec) float32 {
	var s float32
	i := 0
	for ; i+4 <= len(v); i += 4 {
		x := v[i : i+4 : i+4]
		s += float32(x[0] * x[0])
		s += float32(x[1] * x[1])
		s += float32(x[2] * x[2])
		s += float32(x[3] * x[3])
	}
	for ; i < len(v); i++ {
		s += float32(v[i] * v[i])
	}
	return float32(math.Sqrt(float64(s)))
}

// Normalize scales v in place to unit L2 norm and returns v.
// A zero vector is returned unchanged.
func Normalize(v Vec) Vec {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Normalized returns a unit-norm copy of v.
func Normalized(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return Normalize(out)
}

// Cosine returns the cosine similarity between a and b.
// If either vector is zero it returns 0.
func Cosine(a, b Vec) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// SqDist returns the squared Euclidean distance between a and b,
// accumulated in the canonical serial element order.
// It panics if the lengths differ.
func SqDist(a, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SqDist length mismatch %d != %d", len(a), len(b)))
	}
	var s float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		d0 := x[0] - y[0]
		s += float32(d0 * d0)
		d1 := x[1] - y[1]
		s += float32(d1 * d1)
		d2 := x[2] - y[2]
		s += float32(d2 * d2)
		d3 := x[3] - y[3]
		s += float32(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float32(d * d)
	}
	return s
}

// Add stores a+b into dst and returns dst. dst may alias a or b.
func Add(dst, a, b Vec) Vec {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Sub stores a-b into dst and returns dst. dst may alias a or b.
func Sub(dst, a, b Vec) Vec {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Scale multiplies v in place by s and returns v.
func Scale(v Vec, s float32) Vec {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Axpy computes dst += alpha*x element-wise and returns dst.
func Axpy(dst Vec, alpha float32, x Vec) Vec {
	for i := range dst {
		dst[i] += float32(alpha * x[i])
	}
	return dst
}

// Clone returns a copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Softmax rewrites v in place with the numerically stable softmax of its
// entries and returns v. An empty vector is returned unchanged.
func Softmax(v Vec) Vec {
	if len(v) == 0 {
		return v
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float32
	for i, x := range v {
		e := float32(math.Exp(float64(x - max)))
		v[i] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

// LayerNorm normalises v in place to zero mean and unit variance, then
// applies elementwise gain and bias (which may be nil for identity), and
// returns v.
func LayerNorm(v, gain, bias Vec) Vec {
	if len(v) == 0 {
		return v
	}
	var mean float32
	for _, x := range v {
		mean += x
	}
	mean /= float32(len(v))
	var varsum float32
	for _, x := range v {
		d := x - mean
		varsum += float32(d * d)
	}
	const eps = 1e-5
	inv := 1 / float32(math.Sqrt(float64(varsum/float32(len(v))+eps)))
	for i := range v {
		x := float32((v[i] - mean) * inv)
		if gain != nil {
			x = float32(x * gain[i])
		}
		if bias != nil {
			x += bias[i]
		}
		v[i] = x
	}
	return v
}

// ReLU applies max(0,x) in place and returns v.
func ReLU(v Vec) Vec {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
	return v
}

// GELU applies the tanh-approximated Gaussian error linear unit
// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))) in place and returns v.
//
// geluGeneric is the ONE float32 formulation and the reference: every
// product is wrapped in an explicit float32(...) conversion, which forbids
// the compiler from fusing it into a multiply-add, so it is identical
// across architectures. The avx2 tier runs the same operation sequence
// eight lanes at a time (gelu_amd64.s) and is bit-identical to it, NaN
// included; sse2, neon and purego run the portable loop. The result stays
// within 1e-6·max(1,|x|) of the float64 evaluation of the same formula
// (pinned by TestGELUWithinBoundOfFloat64). NaN maps to NaN, +Inf to +Inf,
// and −Inf — ∞·0, as in the float64 formula — to NaN.
func GELU(v Vec) Vec {
	i := 0
	if activeTier == tidAVX2 {
		i = len(v) &^ 7
		gelu8(v[:i])
	}
	geluGeneric(v[i:])
	return v
}

// geluGeneric is GELU's portable reference loop.
func geluGeneric(v Vec) {
	const (
		c = 0.7978845608028654 // sqrt(2/pi)
		k = 0.044715
	)
	for i, x := range v {
		x3 := float32(x * float32(x*x))
		u := float32(c * (x + float32(k*x3)))
		v[i] = float32(float32(0.5*x) * (1 + tanh32(u)))
	}
}

// tanh32 approximates tanh(x) to within a few float32 ulps as a clamped
// odd/even rational p(x)/q(x) evaluated by Horner's rule in float32 (the
// minimax fit used by Eigen and XLA). Beyond the clamp the quotient has
// already rounded to ±1. NaN propagates: it fails both clamp comparisons.
func tanh32(x float32) float32 {
	const (
		clamp = 7.90531110763549805
		a1    = 4.89352455891786e-03
		a3    = 6.37261928875436e-04
		a5    = 1.48572235717979e-05
		a7    = 5.12229709037114e-08
		a9    = -8.60467152213735e-11
		a11   = 2.00018790482477e-13
		a13   = -2.76076847742355e-16
		b0    = 4.89352518554385e-03
		b2    = 2.26843463243900e-03
		b4    = 1.18534705686654e-04
		b6    = 1.19825839466702e-06
	)
	if x > clamp {
		x = clamp
	} else if x < -clamp {
		x = -clamp
	}
	x2 := float32(x * x)
	p := float32(x2*a13) + a11
	p = float32(x2*p) + a9
	p = float32(x2*p) + a7
	p = float32(x2*p) + a5
	p = float32(x2*p) + a3
	p = float32(x2*p) + a1
	p = float32(x * p)
	q := float32(x2*b6) + b4
	q = float32(x2*q) + b2
	q = float32(x2*q) + b0
	return p / q
}
