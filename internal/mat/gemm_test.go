package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// gemmNaive is the Gemm contract spelled out: every output element starts
// at +0 and adds its products in increasing k, each product rounded to
// float32 before the add.
func gemmNaive(dst []float32, ldd int, a []float32, lda int, b []float32, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += float32(a[i*lda+kk] * b[kk*ldb+j])
			}
			dst[i*ldd+j] = s
		}
	}
}

// sentinel fills destination buffers: a NaN no kernel produces, so any
// stray store outside the output block — or a skipped one inside — shows.
const sentinel = 0x7fc0dead

// gemmCase runs Gemm on strided views — a and b sub-blocks of wider
// matrices, dst a column block starting mid-row of a wider matrix — and
// demands the block bit-identical to gemmNaive and every other float of
// dst untouched. pad widens each stride past its block; fill draws the
// operand values.
func gemmCase(t *testing.T, m, n, k, pad int, fill func(n int) []float32) {
	t.Helper()
	lda, ldb, ldd := k+pad, n+pad, n+2*pad
	aoff, boff, doff := pad, pad/2, pad // blocks start inside their buffers
	a := fill(aoff + m*lda)
	b := fill(boff + k*ldb)
	got := make([]float32, doff+m*ldd+pad)
	for i := range got {
		got[i] = math.Float32frombits(sentinel)
	}
	want := append([]float32(nil), got...)

	// Views end exactly at their block's last element: the tightest
	// slices Gemm accepts, so an overrun would fault, not just corrupt.
	view := func(s []float32, off, ld, rows, cols int) []float32 {
		if rows == 0 || cols == 0 {
			return s[off:off]
		}
		return s[off : off+(rows-1)*ld+cols]
	}
	av, bv := view(a, aoff, lda, m, k), view(b, boff, ldb, k, n)
	Gemm(view(got, doff, ldd, m, n), ldd, av, lda, bv, ldb, m, n, k)
	gemmNaive(view(want, doff, ldd, m, n), ldd, av, lda, bv, ldb, m, n, k)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			row, col := (i-doff)/ldd, (i-doff)%ldd
			t.Fatalf("%dx%d·%dx%d pad %d: dst[%d] (block row %d col %d) = %08x, want %08x",
				m, k, k, n, pad, i, row, col, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestGemmBitIdenticalToNaive sweeps every tier over all shapes around the
// tile boundaries (4-row tiles, 8- and 16-column tiles, both remainder
// strips, empty operands), contiguous and strided.
func TestGemmBitIdenticalToNaive(t *testing.T) {
	ks := make([]int, 0, 71)
	for k := 0; k <= 70; k++ {
		ks = append(ks, k)
	}
	if testing.Short() {
		ks = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 70}
	}
	forEachTier(t, func(t *testing.T, tier string) {
		rng := rand.New(rand.NewPCG(0x6e, 0x33))
		// Finite data with signed zeros sprinkled in: a -0 product must
		// not flip an accumulator that started at +0.
		fill := func(n int) []float32 {
			v := randVec(rng, n)
			for i := range v {
				switch rng.Uint64() % 16 {
				case 0:
					v[i] = 0
				case 1:
					v[i] = float32(math.Copysign(0, -1))
				}
			}
			return v
		}
		for m := 0; m <= 9; m++ {
			for n := 0; n <= 40; n++ {
				for _, k := range ks {
					gemmCase(t, m, n, k, 0, fill)
					gemmCase(t, m, n, k, 5, fill)
				}
			}
		}
	})
}

// TestGemmSpecialValues feeds ±Inf, denormals, signed zeros and NaN through
// every tier. The NaN is the one this hardware generates (Inf-Inf): when
// two NaNs with different payloads meet, which one survives depends on
// instruction operand order, which the Go compiler is free to choose for
// the portable tier — outside the contract, as it is for the row kernels.
func TestGemmSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	hwNaN := inf - inf
	forEachTier(t, func(t *testing.T, tier string) {
		rng := rand.New(rand.NewPCG(0x6e, 0x34))
		fill := func(n int) []float32 {
			v := specialVec(rng, n)
			for i := range v {
				switch rng.Uint64() % 24 {
				case 0:
					v[i] = hwNaN
				case 1:
					v[i] = float32(math.Copysign(0, -1))
				case 2:
					v[i] = 0
				}
			}
			return v
		}
		for _, sh := range [][3]int{{4, 16, 1}, {4, 16, 9}, {8, 32, 17}, {9, 40, 70}, {5, 19, 3}, {3, 7, 64}, {48, 64, 64}, {48, 16, 8}} {
			for rep := 0; rep < 8; rep++ {
				gemmCase(t, sh[0], sh[1], sh[2], 0, fill)
				gemmCase(t, sh[0], sh[1], sh[2], 3, fill)
			}
		}
	})
}

func TestGemmRejectsBadBlocks(t *testing.T) {
	buf := make([]float32, 64)
	for name, call := range map[string]func(){
		"negative shape":    func() { Gemm(buf, 4, buf, 4, buf, 4, -1, 4, 4) },
		"dst stride narrow": func() { Gemm(buf, 3, buf, 4, buf, 4, 4, 4, 4) },
		"a stride narrow":   func() { Gemm(buf, 4, buf, 3, buf, 4, 4, 4, 4) },
		"b stride narrow":   func() { Gemm(buf, 4, buf, 4, buf, 3, 4, 4, 4) },
		"dst short":         func() { Gemm(buf[:15], 4, buf, 4, buf, 4, 4, 4, 4) },
		"a short":           func() { Gemm(buf, 4, buf[:15], 4, buf, 4, 4, 4, 4) },
		"b short":           func() { Gemm(buf, 4, buf, 4, buf[:15], 4, 4, 4, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Gemm did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkMatMul measures MatMulInto (sub-benchmarks named m x k x n) at a
// square reference shape and at the rerank transformer's real ones: a
// 48-token projection (48×64·64×64) and one attention head's scores·V
// (48×8·8×16).
func BenchmarkMatMul(b *testing.B) {
	for _, sh := range [][3]int{{64, 64, 64}, {48, 64, 64}, {48, 8, 16}} {
		m, k, n := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			x := &Matrix{Rows: m, Cols: k, Data: benchVec(m*k, 5)}
			y := &Matrix{Rows: k, Cols: n, Data: benchVec(k*n, 6)}
			dst := NewMatrix(m, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, x, y)
			}
		})
	}
}
