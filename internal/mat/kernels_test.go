package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The kernels promise ONE canonical reduction order — the 4-lane order
// documented in kernels.go — so every test here demands bit-identical
// results (math.Float32bits equality, not tolerance) between the optimized
// kernels (including the amd64 assembly) and plain reference loops, across
// zero lengths, odd lengths and non-multiple-of-4 dimensions. The
// references round every product with an explicit float32(...) like the
// kernels do, so they too stay unfused on architectures with an FMA.

// dotRef is the reference scalar inner product, spelling out the canonical
// 4-lane reduction order naively: lane l accumulates elements i ≡ l (mod 4)
// of the 4-aligned prefix, lanes combine as (l0+l2)+(l1+l3), and tail
// elements accumulate serially. Every optimized path must match it bit for
// bit.
func dotRef(a, b []float32) float32 {
	var lanes [4]float32
	n := len(a) &^ 3
	for i := 0; i < n; i++ {
		lanes[i%4] += float32(a[i] * b[i])
	}
	s := (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
	for i := n; i < len(a); i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// matMulRef is the naive triple loop with the canonical per-output-element
// k order.
func matMulRef(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += float32(a.At(i, k) * b.At(k, j))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matMulSkipZeroRef mirrors the pre-kernel MatMul exactly, including its
// skip of zero-valued a elements; the kernels must match it bit for bit on
// finite data (adding a zero product never changes a finite accumulator).
func matMulSkipZeroRef(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += float32(av * bv)
			}
		}
	}
	return out
}

func randVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// kernelDims covers zero length, odd lengths, every residue mod 4, and
// sizes beyond one unrolled block.
var kernelDims = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 31, 32, 33, 63, 64, 67}

func TestDotBitIdenticalToReference(t *testing.T) {
	for _, n := range kernelDims {
		for seed := uint64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(n)))
			a, b := randVec(rng, n), randVec(rng, n)
			got, want := Dot(a, b), dotRef(a, b)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d seed=%d: Dot=%x ref=%x", n, seed, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

// TestDot4RowsMatchesGeneric cross-checks the architecture kernel (SSE
// assembly on amd64) against the portable Go implementation: same 4-lane
// reduction order, bit-identical results, across tail lengths.
func TestDot4RowsMatchesGeneric(t *testing.T) {
	for _, dim := range kernelDims {
		if dim == 0 {
			continue
		}
		rng := rand.New(rand.NewPCG(uint64(dim), 0xa5))
		q := randVec(rng, dim)
		block := randVec(rng, 4*dim)
		var got, want [4]float32
		dot4rows(got[:], q, block)
		dot4rowsGeneric(want[:], q, block)
		for r := 0; r < 4; r++ {
			if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
				t.Fatalf("dim=%d row %d: asm %x generic %x", dim, r, math.Float32bits(got[r]), math.Float32bits(want[r]))
			}
		}
	}
}

// TestVectorKernelToggleBitIdentical pins that pinning the portable tier
// in place of the active one changes nothing but speed.
func TestVectorKernelToggleBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0xa7))
	const dim, rows = 33, 9
	q := randVec(rng, dim)
	block := randVec(rng, rows*dim)
	a := &Matrix{Rows: 5, Cols: 7, Data: randVec(rng, 35)}
	b := &Matrix{Rows: 7, Cols: 9, Data: randVec(rng, 63)}

	simdScores := ScoreRows(nil, q, block, dim)
	simdMul := MatMul(a, b)

	prev, _ := SetKernelTier(TierPurego)
	genScores := ScoreRows(nil, q, block, dim)
	genMul := MatMul(a, b)
	SetKernelTier(prev)

	if !bitsEqual(simdScores, genScores) {
		t.Fatal("ScoreRows differs between SIMD and portable kernels")
	}
	if !bitsEqual(simdMul.Data, genMul.Data) {
		t.Fatal("MatMul differs between SIMD and portable kernels")
	}
}

// TestAxpyKernelMatchesGeneric cross-checks the AXPY kernel the same way.
func TestAxpyKernelMatchesGeneric(t *testing.T) {
	for _, n := range kernelDims {
		rng := rand.New(rand.NewPCG(uint64(n), 0xa6))
		x := randVec(rng, n)
		base := randVec(rng, n)
		alpha := float32(rng.NormFloat64())
		got := append([]float32(nil), base...)
		want := append([]float32(nil), base...)
		axpyKernel(got, alpha, x)
		axpyGeneric(want, alpha, x)
		if !bitsEqual(got, want) {
			t.Fatalf("n=%d: axpy kernel diverges from generic", n)
		}
	}
}

func TestScoreRowsBitIdenticalToPerRowDot(t *testing.T) {
	for _, dim := range kernelDims {
		if dim == 0 {
			continue // ScoreRows requires dim > 0
		}
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 17} {
			rng := rand.New(rand.NewPCG(uint64(dim), uint64(rows)))
			q := randVec(rng, dim)
			block := randVec(rng, rows*dim)
			got := ScoreRows(nil, q, block, dim)
			if len(got) != rows {
				t.Fatalf("dim=%d rows=%d: got %d scores", dim, rows, len(got))
			}
			for r := 0; r < rows; r++ {
				want := dotRef(q, block[r*dim:(r+1)*dim])
				if math.Float32bits(got[r]) != math.Float32bits(want) {
					t.Fatalf("dim=%d row %d: got %x want %x", dim, r, math.Float32bits(got[r]), math.Float32bits(want))
				}
			}
		}
	}
}

func TestSqDistBitIdenticalToReference(t *testing.T) {
	for _, n := range kernelDims {
		rng := rand.New(rand.NewPCG(uint64(n), 77))
		a, b := randVec(rng, n), randVec(rng, n)
		var want float32
		for i := range a {
			d := a[i] - b[i]
			want += float32(d * d)
		}
		if got := SqDist(a, b); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("n=%d: SqDist=%x ref=%x", n, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

func TestNormBitIdenticalToReference(t *testing.T) {
	for _, n := range kernelDims {
		rng := rand.New(rand.NewPCG(uint64(n), 78))
		v := randVec(rng, n)
		var s float32
		for _, x := range v {
			s += float32(x * x)
		}
		want := float32(math.Sqrt(float64(s)))
		if got := Norm(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("n=%d: Norm=%x ref=%x", n, math.Float32bits(got), math.Float32bits(want))
		}
	}
}

func TestMatMulBitIdenticalToReference(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{0, 0, 0}, {1, 1, 1}, {2, 3, 4}, {3, 5, 7}, {5, 4, 3},
		{7, 7, 7}, {1, 9, 2}, {4, 64, 33}, {9, 13, 300}, // wider than one column tile
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewPCG(uint64(sh.m*100+sh.k*10+sh.n), 5))
		a := &Matrix{Rows: sh.m, Cols: sh.k, Data: randVec(rng, sh.m*sh.k)}
		b := &Matrix{Rows: sh.k, Cols: sh.n, Data: randVec(rng, sh.k*sh.n)}
		// Sprinkle zeros so the skip-zero reference exercises its skip.
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		got := MatMul(a, b)
		if !bitsEqual(got.Data, matMulRef(a, b).Data) {
			t.Fatalf("%dx%d·%dx%d: MatMul differs from naive reference", sh.m, sh.k, sh.k, sh.n)
		}
		if !bitsEqual(got.Data, matMulSkipZeroRef(a, b).Data) {
			t.Fatalf("%dx%d·%dx%d: MatMul differs from the seed's skip-zero loop", sh.m, sh.k, sh.k, sh.n)
		}
	}
}

func TestMatMulTBitIdenticalToPerCellDot(t *testing.T) {
	shapes := []struct{ m, n, d int }{
		{0, 0, 1}, {1, 1, 1}, {3, 4, 5}, {5, 3, 17}, {2, 9, 64}, {4, 4, 0},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewPCG(uint64(sh.m*100+sh.n*10+sh.d), 6))
		a := &Matrix{Rows: sh.m, Cols: sh.d, Data: randVec(rng, sh.m*sh.d)}
		b := &Matrix{Rows: sh.n, Cols: sh.d, Data: randVec(rng, sh.n*sh.d)}
		got := MatMulT(a, b)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				want := dotRef(a.Row(i), b.Row(j))
				if math.Float32bits(got.At(i, j)) != math.Float32bits(want) {
					t.Fatalf("(%d,%d): got %x want %x", i, j, math.Float32bits(got.At(i, j)), math.Float32bits(want))
				}
			}
		}
	}
}

func TestMatVecBitIdenticalToPerRowDot(t *testing.T) {
	for _, sh := range []struct{ m, n int }{{0, 3}, {3, 0}, {1, 1}, {4, 7}, {9, 33}} {
		rng := rand.New(rand.NewPCG(uint64(sh.m*10+sh.n), 7))
		m := &Matrix{Rows: sh.m, Cols: sh.n, Data: randVec(rng, sh.m*sh.n)}
		v := randVec(rng, sh.n)
		got := MatVec(m, v)
		for i := 0; i < sh.m; i++ {
			want := dotRef(m.Row(i), v)
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("row %d: got %x want %x", i, math.Float32bits(got[i]), math.Float32bits(want))
			}
		}
	}
}

func TestScratchZeroedAfterReuse(t *testing.T) {
	s := GetScratch(100)
	for i := range s.Buf {
		s.Buf[i] = 42
	}
	s.Release()
	s2 := GetScratch(100)
	defer s2.Release()
	for i, x := range s2.Buf {
		if x != 0 {
			t.Fatalf("reused scratch not zeroed at %d: %v", i, x)
		}
	}
}

func TestScratchOversizedRequests(t *testing.T) {
	s := GetScratch(1 << 23) // beyond maxClass: plain allocation
	if len(s.Buf) != 1<<23 {
		t.Fatalf("oversized scratch length %d", len(s.Buf))
	}
	s.Release() // must not panic or pollute the pools
	z := GetScratch(0)
	if len(z.Buf) != 0 {
		t.Fatalf("zero scratch length %d", len(z.Buf))
	}
	z.Release()
}

// TestArenaReuseZeroesAndRecycles dirties pooled buffers — one through
// MatrixUninit, the unzeroed checkout — and checks that Vec and Matrix
// still hand them back zeroed.
func TestArenaReuseZeroesAndRecycles(t *testing.T) {
	ar := GetArena()
	v := ar.Vec(10)
	m := ar.MatrixUninit(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("uninit arena matrix %dx%d over %d floats", m.Rows, m.Cols, len(m.Data))
	}
	for i := range v {
		v[i] = 1
	}
	for i := range m.Data {
		m.Data[i] = 2
	}
	ar.Release()

	ar2 := GetArena()
	defer ar2.Release()
	v2 := ar2.Vec(10)
	m2 := ar2.Matrix(3, 4)
	for i, x := range v2 {
		if x != 0 {
			t.Fatalf("arena vec not zeroed at %d", i)
		}
	}
	if m2.Rows != 3 || m2.Cols != 4 {
		t.Fatalf("arena matrix shape %dx%d", m2.Rows, m2.Cols)
	}
	for i, x := range m2.Data {
		if x != 0 {
			t.Fatalf("arena matrix not zeroed at %d", i)
		}
	}
}

func TestTopKResetEquivalentToFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	reused := NewTopK(3)
	for round := 0; round < 5; round++ {
		k := 1 + int(rng.Uint64()%8)
		reused.Reset(k)
		fresh := NewTopK(k)
		for i := 0; i < 50; i++ {
			id := int64(rng.Uint64() % 20)
			score := float32(rng.NormFloat64())
			reused.Push(id, score)
			fresh.Push(id, score)
		}
		a, b := reused.Sorted(), fresh.Sorted()
		if len(a) != len(b) {
			t.Fatalf("round %d: %d vs %d items", round, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d item %d: %v vs %v", round, i, a[i], b[i])
			}
		}
	}
}

func TestGetTopKIsReset(t *testing.T) {
	tk := GetTopK(2)
	tk.Push(1, 1)
	tk.Push(2, 2)
	PutTopK(tk)
	tk2 := GetTopK(4)
	defer PutTopK(tk2)
	if tk2.Len() != 0 {
		t.Fatalf("pooled TopK not empty: %d", tk2.Len())
	}
	tk2.Push(7, 0.5)
	got := tk2.Sorted()
	if len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("pooled TopK misbehaves: %v", got)
	}
}
