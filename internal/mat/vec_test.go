package mat

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float32, msg string) {
	t.Helper()
	if math.Abs(float64(got-want)) > float64(tol) {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestDot(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, -5, 6}
	approx(t, Dot(a, b), 12, 1e-6, "dot")
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestNormAndNormalize(t *testing.T) {
	v := Vec{3, 4}
	approx(t, Norm(v), 5, 1e-6, "norm")
	Normalize(v)
	approx(t, Norm(v), 1, 1e-6, "unit norm")
	approx(t, v[0], 0.6, 1e-6, "x")
	approx(t, v[1], 0.8, 1e-6, "y")
}

func TestNormalizeZeroVector(t *testing.T) {
	v := Vec{0, 0, 0}
	Normalize(v)
	for _, x := range v {
		if x != 0 {
			t.Fatal("zero vector must stay zero")
		}
	}
}

func TestCosineZero(t *testing.T) {
	if c := Cosine(Vec{0, 0}, Vec{1, 1}); c != 0 {
		t.Fatalf("cosine with zero vector = %v, want 0", c)
	}
}

func TestCosineSelf(t *testing.T) {
	v := Vec{0.3, -0.7, 0.1}
	approx(t, Cosine(v, v), 1, 1e-5, "self cosine")
}

func TestSqDist(t *testing.T) {
	approx(t, SqDist(Vec{1, 2}, Vec{4, 6}), 25, 1e-6, "sqdist")
}

func TestAddSubScaleAxpy(t *testing.T) {
	a := Vec{1, 2}
	b := Vec{3, 5}
	dst := NewVec(2)
	Add(dst, a, b)
	approx(t, dst[0], 4, 1e-6, "add0")
	Sub(dst, b, a)
	approx(t, dst[1], 3, 1e-6, "sub1")
	Scale(dst, 2)
	approx(t, dst[0], 4, 1e-6, "scale0")
	Axpy(dst, -1, Vec{4, 6})
	approx(t, dst[0], 0, 1e-6, "axpy0")
	approx(t, dst[1], 0, 1e-6, "axpy1")
}

func TestSoftmaxSumsToOne(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	Softmax(v)
	var sum float32
	for _, x := range v {
		sum += x
	}
	approx(t, sum, 1, 1e-5, "softmax sum")
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			t.Fatal("softmax must preserve order")
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	v := Vec{1000, 1000, 1000}
	Softmax(v)
	for _, x := range v {
		approx(t, x, 1.0/3, 1e-5, "uniform softmax with large inputs")
	}
}

func TestSoftmaxEmpty(t *testing.T) {
	if out := Softmax(Vec{}); len(out) != 0 {
		t.Fatal("empty softmax must stay empty")
	}
}

func TestLayerNorm(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	LayerNorm(v, nil, nil)
	var mean float32
	for _, x := range v {
		mean += x
	}
	approx(t, mean/4, 0, 1e-5, "layernorm mean")
	var varsum float32
	for _, x := range v {
		varsum += float32(x * x)
	}
	approx(t, varsum/4, 1, 1e-3, "layernorm variance")
}

func TestLayerNormGainBias(t *testing.T) {
	v := Vec{1, 2}
	LayerNorm(v, Vec{2, 2}, Vec{1, 1})
	approx(t, v[0]+v[1], 2, 1e-4, "gain/bias symmetric sum")
}

func TestReLUAndGELU(t *testing.T) {
	v := Vec{-1, 0, 2}
	ReLU(v)
	if v[0] != 0 || v[1] != 0 || v[2] != 2 {
		t.Fatalf("relu got %v", v)
	}
	g := Vec{-10, 0, 10}
	GELU(g)
	approx(t, g[0], 0, 1e-3, "gelu(-10)")
	approx(t, g[1], 0, 1e-6, "gelu(0)")
	approx(t, g[2], 10, 1e-3, "gelu(10)")
}

// geluFloat64 evaluates the GELU tanh formula in float64 through math.Tanh
// — what GELU itself did before it became one float32 formulation.
func geluFloat64(x float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x64 := float64(x)
	return float32(0.5 * x64 * (1 + math.Tanh(c*(x64+0.044715*x64*x64*x64))))
}

func gelu1(x float32) float32 { return GELU(Vec{x})[0] }

// TestGELUWithinBoundOfFloat64 sweeps a dense grid over [-10, 10]: the
// float32 formula stays within 1e-6·max(1,|x|) of the float64 evaluation.
func TestGELUWithinBoundOfFloat64(t *testing.T) {
	var worst float64
	for i := -1000000; i <= 1000000; i++ {
		x := float32(i) * 1e-5
		d := math.Abs(float64(gelu1(x)) - float64(geluFloat64(x)))
		d /= math.Max(1, math.Abs(float64(x)))
		if d > worst {
			worst = d
		}
		if d > 1e-6 {
			t.Fatalf("GELU(%v) = %v, float64 formula %v: off by %g·max(1,|x|)", x, gelu1(x), geluFloat64(x), d)
		}
	}
	t.Logf("max deviation %.3g·max(1,|x|)", worst)
}

func TestGELUSpecialValuesAndTails(t *testing.T) {
	inf := float32(math.Inf(1))
	if g := gelu1(float32(math.NaN())); g == g {
		t.Fatalf("GELU(NaN) = %v, want NaN", g)
	}
	if g := gelu1(inf); g != inf {
		t.Fatalf("GELU(+Inf) = %v, want +Inf", g)
	}
	// -Inf is Inf·0 in the formula: NaN, exactly as in float64.
	if g, ref := gelu1(-inf), geluFloat64(-inf); g == g || ref == ref {
		t.Fatalf("GELU(-Inf) = %v, float64 formula %v, want NaN from both", g, ref)
	}
	if g := gelu1(0); g != 0 {
		t.Fatalf("GELU(0) = %v", g)
	}
	// Positive side: non-decreasing (GELU's slope there is at least 1/2),
	// never above x, and the identity once tanh has saturated; x³
	// overflowing float32 must not disturb that.
	prev := gelu1(0)
	for i := 1; i <= 20000; i++ {
		x := float32(i) * 1e-3
		g := gelu1(x)
		if g < prev || g > x {
			t.Fatalf("GELU(%v) = %v after %v: positive side must be non-decreasing and at most x", x, g, prev)
		}
		prev = g
	}
	for _, x := range []float32{9, 20, 1e13, 3e38} {
		if g := gelu1(x); g != x {
			t.Fatalf("GELU(%v) = %v, want the identity in the saturated tail", x, g)
		}
	}
	// Negative tail: saturates to exactly zero and stays there.
	for _, x := range []float32{-6, -9, -20, -1e13, -3e38} {
		if g := gelu1(x); g != 0 {
			t.Fatalf("GELU(%v) = %v, want 0 in the saturated tail", x, g)
		}
	}
}

// Property: normalisation is idempotent and yields unit norm.
func TestNormalizeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		v := make(Vec, 8)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		if Norm(v) == 0 {
			return true
		}
		Normalize(v)
		n1 := Norm(v)
		Normalize(v)
		n2 := Norm(v)
		return math.Abs(float64(n1-1)) < 1e-4 && math.Abs(float64(n2-1)) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy-Schwarz, |dot(a,b)| <= |a||b|.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		a, b := make(Vec, 6), make(Vec, 6)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		return math.Abs(float64(Dot(a, b))) <= float64(Norm(a)*Norm(b))+1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for unit vectors, SqDist = 2 - 2*dot (the identity Section V-A
// of the paper relies on).
func TestUnitDistanceIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		a, b := make(Vec, 10), make(Vec, 10)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		if Norm(a) == 0 || Norm(b) == 0 {
			return true
		}
		Normalize(a)
		Normalize(b)
		lhs := SqDist(a, b)
		rhs := 2 - 2*Dot(a, b)
		return math.Abs(float64(lhs-rhs)) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
