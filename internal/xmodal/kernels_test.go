package xmodal

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/query"
	"repro/internal/video"
)

// The rerank is the largest consumer of the tiered kernels: these tests pin
// that no tier, and neither the strided-view attention nor the float32
// GELU, changes what it answers.

// benchFrame is BenchmarkGroundFrame's frame and query: six cars, 48
// region tokens, 8 text tokens.
func benchFrame() (*Model, *video.Frame, []embed.Token) {
	space := embed.NewSpace(64, 32, 1)
	model := New(space, Config{Seed: 1})
	te := &embed.TextEncoder{Space: space}
	toks := te.Tokens(query.Parse("A red car side by side with another car, both positioned in the center of the road."))
	f := &video.Frame{VideoID: 1, Index: 0, Context: []string{"road"}}
	for i := 0; i < 6; i++ {
		f.Objects = append(f.Objects, video.Object{
			Track: int64(i), Class: "car", Attrs: []string{"red"},
			Box:       video.Box{X: 0.1 * float64(i), Y: 0.4, W: 0.1, H: 0.07},
			Behaviors: []string{"driving"},
		})
	}
	return model, f, toks
}

// underEachKernelPath runs fn under every supported kernel tier (purego
// included), restoring the original tier.
func underEachKernelPath(t *testing.T, fn func(path string)) {
	t.Helper()
	orig := mat.KernelTier()
	defer mat.SetKernelTier(orig)
	for _, tier := range mat.KernelTiers() {
		if _, err := mat.SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%q): %v", tier, err)
		}
		fn(tier)
	}
}

func sameGroundings(a, b []Grounding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ObjectIdx != b[i].ObjectIdx || a[i].Box != b[i].Box ||
			math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			return false
		}
	}
	return true
}

func TestGroundFrameBitIdenticalAcrossTiers(t *testing.T) {
	model, f, toks := benchFrame()
	var want []Grounding
	var wantPath string
	underEachKernelPath(t, func(path string) {
		got := model.GroundFrame(f, toks)
		if len(got) != len(f.Objects) {
			t.Fatalf("%s: %d groundings for %d objects", path, len(got), len(f.Objects))
		}
		if want == nil {
			want, wantPath = got, path
			return
		}
		if !sameGroundings(got, want) {
			t.Fatalf("groundings differ between %s and %s:\n%v\n%v", path, wantPath, got, want)
		}
	})
}

// mhaCopiedHeads is the attention block as it was before the strided
// kernels: project K whole, copy every head's Q/K/V columns into matrices
// of their own, and copy each head's output back into concat row by row.
func mhaCopiedHeads(m *mha, a, b *mat.Matrix) *mat.Matrix {
	headSlice := func(xw *mat.Matrix, h, dh int) *mat.Matrix {
		out := mat.NewMatrix(xw.Rows, dh)
		for i := 0; i < xw.Rows; i++ {
			copy(out.Row(i), xw.Row(i)[h*dh:(h+1)*dh])
		}
		return out
	}
	dim := a.Cols
	dh := dim / m.heads
	aw, bk, bv := mat.MatMul(a, m.wq), mat.MatMul(b, m.wk), mat.MatMul(b, m.wv)
	concat := mat.NewMatrix(a.Rows, dim)
	scale := float32(1 / math.Sqrt(float64(dh)))
	for h := 0; h < m.heads; h++ {
		scores := mat.MatMulT(headSlice(aw, h, dh), headSlice(bk, h, dh))
		scores.ScaleInPlace(scale)
		scores.SoftmaxRows()
		oh := mat.MatMul(scores, headSlice(bv, h, dh))
		for i := 0; i < a.Rows; i++ {
			copy(concat.Row(i)[h*dh:(h+1)*dh], oh.Row(i))
		}
	}
	return mat.MatMul(concat, m.wo)
}

func TestMHAStridedViewsMatchCopiedHeads(t *testing.T) {
	m := newMHA(64, 4, 0.02, 9)
	underEachKernelPath(t, func(path string) {
		for _, sh := range [][2]int{{1, 1}, {5, 3}, {3, 5}, {8, 48}, {48, 8}, {47, 9}} {
			a := mat.RandGaussian(sh[0], 64, 1, uint64(sh[0]))
			b := mat.RandGaussian(sh[1], 64, 1, uint64(100+sh[1]))
			ar := mat.GetArena()
			got := m.apply(ar, a, b)
			want := mhaCopiedHeads(m, a, b)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s %v: shape %dx%d, want %dx%d", path, sh, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s %v: element %d = %x, copied-head reference %x", path, sh, i,
						math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
			ar.Release()
		}
	})
}

// geluFloat64 is the activation as it was before mat.GELU went float32:
// the same tanh formula evaluated in float64 through math.Tanh.
func geluFloat64(v mat.Vec) mat.Vec {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, x := range v {
		x64 := float64(x)
		v[i] = float32(0.5 * x64 * (1 + math.Tanh(c*(x64+0.044715*x64*x64*x64))))
	}
	return v
}

// setActivation makes every feed-forward block of m run act.
func setActivation(m *Model, act func(mat.Vec) mat.Vec) {
	for _, layers := range [][]*enhancerLayer{m.enhancer, m.decoder} {
		for _, l := range layers {
			l.fi.act, l.ft.act = act, act
		}
	}
}

// TestGroundFrameMatchesPreTileScores pins the whole refactor at once: with
// the float64 GELU swapped back in, the strided attention, the GEMM tiles,
// the in-place re-seeded token noise and the prefix-hashed dropout seeds
// reproduce, bit for bit and on every kernel path, the scores this frame
// had before any of them existed. (amd64 only: math.Exp and math.Sin are
// per-architecture assembly, so other architectures have their own bits.)
func TestGroundFrameMatchesPreTileScores(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden scores were recorded on amd64")
	}
	golden := []struct {
		object int
		score  uint32
	}{
		{5, 0x3f6b51e0}, {4, 0x3f6a9cc8}, {2, 0x3f4d7658},
		{1, 0x3f4ae605}, {3, 0x3f4a6f4e}, {0, 0x3f46cbd1},
	}
	model, f, toks := benchFrame()
	setActivation(model, geluFloat64)
	underEachKernelPath(t, func(path string) {
		got := model.GroundFrame(f, toks)
		if len(got) != len(golden) {
			t.Fatalf("%s: %d groundings, want %d", path, len(got), len(golden))
		}
		for i, g := range got {
			if g.ObjectIdx != golden[i].object || math.Float32bits(g.Score) != golden[i].score {
				t.Fatalf("%s: rank %d is object %d score %08x, recorded object %d score %08x",
					path, i, g.ObjectIdx, math.Float32bits(g.Score), golden[i].object, golden[i].score)
			}
		}
	})
}

// TestRankingStableUnderFloat32GELU grounds every Table II query of two
// datasets under mat.GELU and under the float64 reference: the float32
// formula may move a score in its last bits, never an answer. Per frame
// the ranked object lists must be equal, and per query so must the
// globally ranked (video, frame, object) list the rerank stage returns.
func TestRankingStableUnderFloat32GELU(t *testing.T) {
	type hit struct {
		video, frame, object int
		score                float32
	}
	space := embed.NewSpace(64, 32, 1)
	cfg := Config{Seed: 1}
	model, ref := New(space, cfg), New(space, cfg)
	setActivation(ref, geluFloat64)
	te := &embed.TextEncoder{Space: space}
	ranked := func(m *Model, ds *datasets.Dataset, toks []embed.Token) []hit {
		var hits []hit
		for vi := range ds.Videos {
			v := &ds.Videos[vi]
			for fi := 0; fi < len(v.Frames); fi += 5 {
				// Appended in GroundFrame's own order, and the sort
				// below is stable: per-frame order survives among ties.
				for _, g := range m.GroundFrame(&v.Frames[fi], toks) {
					hits = append(hits, hit{v.ID, fi, g.ObjectIdx, g.Score})
				}
			}
		}
		sort.SliceStable(hits, func(i, j int) bool { return hits[i].score > hits[j].score })
		return hits
	}
	dcfg := datasets.Config{Seed: 2, Scale: 0.1}
	var moved int
	for _, ds := range []*datasets.Dataset{datasets.Bellevue(dcfg), datasets.Beach(dcfg)} {
		for _, q := range ds.Queries {
			toks := te.Tokens(query.Parse(q.Text))
			got, want := ranked(model, ds, toks), ranked(ref, ds, toks)
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("%s %s: %d groundings, reference %d", ds.Name, q.ID, len(got), len(want))
			}
			for i := range want {
				if got[i].video != want[i].video || got[i].frame != want[i].frame || got[i].object != want[i].object {
					t.Fatalf("%s %s: rank %d is (video %d, frame %d, object %d), float64-GELU reference (video %d, frame %d, object %d)",
						ds.Name, q.ID, i, got[i].video, got[i].frame, got[i].object, want[i].video, want[i].frame, want[i].object)
				}
				if got[i].score != want[i].score {
					moved++
				}
				if d := math.Abs(float64(got[i].score - want[i].score)); d > 1e-5 {
					t.Fatalf("%s %s: rank %d score moved by %g", ds.Name, q.ID, i, d)
				}
			}
		}
	}
	t.Logf("%d scores differ from the float64 reference in their last bits, no rank moved", moved)
}

// TestGroundFrameAllocs guards the per-frame heap churn: the parent of the
// scratch-pool change made 186 allocations on this frame; what remains is
// the frame's term and neighbour lists and the returned groundings.
func TestGroundFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	model, f, toks := benchFrame()
	model.GroundFrame(f, toks) // warm the pools
	if n := testing.AllocsPerRun(20, func() { model.GroundFrame(f, toks) }); n > 93 {
		t.Fatalf("GroundFrame made %v allocations per frame, want at most 93 (half of 186)", n)
	}
}
