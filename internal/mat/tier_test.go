package mat

import (
	"math"
	"math/rand/v2"
	"testing"
)

// Cross-tier property suite: every kernel tier this host supports must
// produce byte-identical scores — and therefore byte-identical TopK
// results — on hostile inputs: odd dims, denormals, ±Inf, and row counts
// that exercise the 8-row, 4-row and scalar tails.

// specialVec mixes normal values with denormals and ±Inf. Infinities of
// both signs can meet in one reduction (Inf + -Inf → NaN); that is fine
// for bit-identity testing — on one host every tier runs the same
// hardware arithmetic, so even NaN bit patterns must agree.
func specialVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		switch rng.Uint64() % 10 {
		case 0:
			v[i] = math.Float32frombits(uint32(rng.Uint64() & 0x7FFFFF)) // +denormal
		case 1:
			v[i] = -math.Float32frombits(uint32(rng.Uint64() & 0x7FFFFF)) // -denormal
		case 2:
			v[i] = float32(math.Inf(1))
		case 3:
			v[i] = float32(math.Inf(-1))
		default:
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// forEachTier runs fn under every tier the host supports, restoring the
// original tier afterwards.
func forEachTier(t *testing.T, fn func(t *testing.T, tier string)) {
	t.Helper()
	orig := KernelTier()
	defer SetKernelTier(orig)
	for _, tier := range KernelTiers() {
		if _, err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%q): %v", tier, err)
		}
		t.Run(tier, func(t *testing.T) { fn(t, tier) })
	}
}

func TestKernelTierRegistry(t *testing.T) {
	orig := KernelTier()
	defer SetKernelTier(orig)

	tiers := KernelTiers()
	if len(tiers) == 0 || tiers[len(tiers)-1] != TierPurego {
		t.Fatalf("KernelTiers() = %v, want purego last", tiers)
	}
	// auto resolves to the widest supported tier (first in detection order).
	if _, err := SetKernelTier(TierAuto); err != nil {
		t.Fatalf("SetKernelTier(auto): %v", err)
	}
	if got := KernelTier(); got != tiers[0] {
		t.Fatalf("auto resolved to %q, want widest %q", got, tiers[0])
	}
	// Every supported tier round-trips.
	for _, tier := range tiers {
		if _, err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%q): %v", tier, err)
		}
		if got := KernelTier(); got != tier {
			t.Fatalf("KernelTier() = %q after selecting %q", got, tier)
		}
	}
	// Unknown names and unsupported tiers fail without changing the tier.
	SetKernelTier(tiers[0])
	if _, err := SetKernelTier("sse9"); err == nil {
		t.Fatal("SetKernelTier(sse9) succeeded")
	}
	supported := map[string]bool{}
	for _, tier := range tiers {
		supported[tier] = true
	}
	for _, tier := range []string{TierAVX2, TierSSE2, TierNEON} {
		if supported[tier] {
			continue
		}
		if _, err := SetKernelTier(tier); err == nil {
			t.Fatalf("SetKernelTier(%q) succeeded on a host without it", tier)
		}
	}
	if got := KernelTier(); got != tiers[0] {
		t.Fatalf("failed SetKernelTier changed the tier to %q", got)
	}
}

// TestDot8RowsMatchesGeneric cross-checks the AVX2 8-row kernel against
// its portable twin under the Float32bits harness, including denormals,
// infinities and every tail residue.
func TestDot8RowsMatchesGeneric(t *testing.T) {
	for _, dim := range kernelDims {
		if dim == 0 {
			continue
		}
		for seed := uint64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewPCG(uint64(dim), 0xd8+seed))
			q := specialVec(rng, dim)
			block := specialVec(rng, 8*dim)
			var got, want [8]float32
			dot8rows(got[:], q, block)
			dot8rowsGeneric(want[:], q, block)
			for r := 0; r < 8; r++ {
				if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
					t.Fatalf("dim=%d seed=%d row %d: asm %x generic %x",
						dim, seed, r, math.Float32bits(got[r]), math.Float32bits(want[r]))
				}
			}
		}
	}
}

// TestScoreRowsBitIdenticalAcrossTiers pins the tentpole contract: every
// tier produces byte-identical score vectors on hostile inputs, across
// dims of every residue mod 8 and row counts exercising all three tail
// paths (8-row groups, 4-row groups, scalar remainder).
func TestScoreRowsBitIdenticalAcrossTiers(t *testing.T) {
	dims := []int{1, 2, 3, 5, 7, 8, 9, 13, 16, 31, 32, 33, 67}
	rows := []int{1, 3, 4, 7, 8, 9, 15, 16, 17, 40}
	type cse struct {
		dim, rows int
		q, block  Vec
	}
	var cases []cse
	for _, dim := range dims {
		for _, n := range rows {
			rng := rand.New(rand.NewPCG(uint64(dim), uint64(n)^0xbeef))
			cases = append(cases, cse{dim, n, specialVec(rng, dim), specialVec(rng, n*dim)})
		}
	}
	want := make(map[int][]float32, len(cases))
	forEachTier(t, func(t *testing.T, tier string) {
		for i, c := range cases {
			got := ScoreRows(nil, c.q, c.block, c.dim)
			if prev, ok := want[i]; !ok {
				want[i] = got
			} else if !bitsEqual(got, prev) {
				t.Fatalf("dim=%d rows=%d: tier %s diverges from %s",
					c.dim, c.rows, tier, KernelTiers()[0])
			}
		}
	})
}

// TestTopKByteIdenticalAcrossTiers runs the full scan-and-select shape —
// ScoreRows feeding TopK — under every tier and demands byte-identical
// ranked results, IDs and score bits both.
func TestTopKByteIdenticalAcrossTiers(t *testing.T) {
	const dim, n, k = 33, 1000, 25
	rng := rand.New(rand.NewPCG(0x70, 0x4b))
	q := specialVec(rng, dim)
	block := specialVec(rng, n*dim)

	type ranked struct {
		ids    []int64
		scores []uint32
	}
	scan := func() ranked {
		scores := ScoreRows(nil, q, block, dim)
		top := NewTopK(k)
		for r, s := range scores {
			top.Push(int64(r), s)
		}
		var out ranked
		for _, it := range top.Sorted() {
			out.ids = append(out.ids, it.ID)
			out.scores = append(out.scores, math.Float32bits(it.Score))
		}
		return out
	}

	var ref ranked
	haveRef := false
	forEachTier(t, func(t *testing.T, tier string) {
		got := scan()
		if !haveRef {
			ref, haveRef = got, true
			return
		}
		if len(got.ids) != len(ref.ids) {
			t.Fatalf("tier %s: %d results, want %d", tier, len(got.ids), len(ref.ids))
		}
		for i := range got.ids {
			if got.ids[i] != ref.ids[i] || got.scores[i] != ref.scores[i] {
				t.Fatalf("tier %s rank %d: (%d, %x) vs (%d, %x)",
					tier, i, got.ids[i], got.scores[i], ref.ids[i], ref.scores[i])
			}
		}
	})
}

// TestGELUBitIdenticalAcrossTiers holds every tier's GELU to the portable
// reference loop, bit for bit, at every length 0–300 (the avx2 body plus
// every tail) and unaligned starts, on normal values, denormals, ±Inf,
// quiet and signalling NaNs with arbitrary payloads, and raw bit patterns.
func TestGELUBitIdenticalAcrossTiers(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	hostile := func(n int) Vec {
		v := specialVec(rng, n)
		for i := range v {
			switch rng.Uint64() % 8 {
			case 0:
				v[i] = math.Float32frombits(uint32(rng.Uint64())) // raw bits, NaNs included
			case 1:
				v[i] = math.Float32frombits(0x7f800001 | uint32(rng.Uint64())&0x803fffff) // signalling NaN
			case 2:
				v[i] = float32(rng.NormFloat64() * 12) // both clamp sides
			}
		}
		return v
	}
	inputs := []Vec{{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		7.9053111, -7.9053111, 1e20, -1e20, math.SmallestNonzeroFloat32, -math.MaxFloat32, math.MaxFloat32}}
	for n := 0; n <= 300; n++ {
		inputs = append(inputs, hostile(n))
	}
	forEachTier(t, func(t *testing.T, tier string) {
		for _, in := range inputs {
			for _, off := range []int{0, 1, 3} {
				if off > len(in) {
					continue
				}
				want := append(Vec(nil), in[off:]...)
				geluGeneric(want)
				got := GELU(append(Vec(nil), in[off:]...))
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("len %d offset %d: GELU(%08x)[%d] = %08x, reference %08x",
							len(in), off, math.Float32bits(in[off+i]), i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}
