package xmodal

import (
	"fmt"
	"math"
	"math/rand/v2"
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
	dh := dim / heads
	aw, bk, bv := mat.MatMul(a, m.wq), mat.MatMul(b, m.wk), mat.MatMul(b, m.wv)
	concat := mat.NewMatrix(a.Rows, dim)
	scale := float32(1 / math.Sqrt(float64(dh)))
	for h := 0; h < heads; h++ {
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

// TestMHAStridedViewsMatchCopiedHeads holds the stacked attention block to
// the copied-head reference, bit for bit on every kernel path: each shape
// alone, then every shape as one frame of a single stack, where each
// frame's output rows must still be its own reference — attention is
// block-diagonal, and the shared projections add rows, never bits.
func TestMHAStridedViewsMatchCopiedHeads(t *testing.T) {
	m := newMHA(64, 9)
	shapes := [][2]int{{1, 1}, {5, 3}, {3, 5}, {8, 48}, {48, 8}, {47, 9}}
	sameBits := func(path, what string, got []float32, want *mat.Matrix) {
		t.Helper()
		if len(got) != len(want.Data) {
			t.Fatalf("%s %s: %d floats, copied-head reference %d", path, what, len(got), len(want.Data))
		}
		for i := range want.Data {
			if math.Float32bits(got[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s %s: element %d = %x, copied-head reference %x", path, what, i,
					math.Float32bits(got[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
	underEachKernelPath(t, func(path string) {
		var as, bs []seg
		var stackA, stackB []mat.Vec
		var wants []*mat.Matrix
		for _, sh := range shapes {
			a := mat.RandGaussian(sh[0], 64, 1, uint64(sh[0]))
			b := mat.RandGaussian(sh[1], 64, 1, uint64(100+sh[1]))
			want := mhaCopiedHeads(m, a, b)
			ar := mat.GetArena()
			got := m.apply(ar, a, []seg{{0, a.Rows}}, b, []seg{{0, b.Rows}})
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("%s %v: shape %dx%d, want %dx%d", path, sh, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			sameBits(path, fmt.Sprint(sh), got.Data, want)
			ar.Release()
			as = append(as, seg{len(stackA), a.Rows})
			bs = append(bs, seg{len(stackB), b.Rows})
			for i := 0; i < a.Rows; i++ {
				stackA = append(stackA, a.Row(i))
			}
			for i := 0; i < b.Rows; i++ {
				stackB = append(stackB, b.Row(i))
			}
			wants = append(wants, want)
		}
		ar := mat.GetArena()
		defer ar.Release()
		got := m.apply(ar, mat.FromRows(stackA), as, mat.FromRows(stackB), bs)
		for f, s := range as {
			sameBits(path, fmt.Sprintf("stacked frame %d %v", f, shapes[f]), got.Data[s.off*64:(s.off+s.n)*64], wants[f])
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
	for _, l := range []*enhancerLayer{m.enhancer, m.decoder} {
		l.fi.act, l.ft.act = act, act
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

// stackLegs cuts keyframes of two datasets into legs of up to 8, the way a
// worker's stage 2 receives them, and salts them with the edge cases a
// stack must absorb: frames with no objects (no region tokens, no rows),
// a frame repeated within one leg, and a leg of one.
func stackLegs() [][]*video.Frame {
	dcfg := datasets.Config{Seed: 3, Scale: 0.05}
	var frames []*video.Frame
	for _, ds := range []*datasets.Dataset{datasets.Bellevue(dcfg), datasets.Beach(dcfg)} {
		for vi := range ds.Videos {
			v := &ds.Videos[vi]
			for fi := 0; fi < len(v.Frames); fi += 11 {
				frames = append(frames, &v.Frames[fi])
			}
		}
	}
	empty := &video.Frame{VideoID: 1, Index: 5}
	var legs [][]*video.Frame
	for i := 0; i < len(frames); i += 8 {
		leg := append([]*video.Frame(nil), frames[i:min(i+8, len(frames))]...)
		switch len(legs) % 4 {
		case 0:
			leg = append([]*video.Frame{empty}, leg...)
		case 1:
			leg = append(leg, empty, leg[0])
		case 2:
			leg = leg[:1]
		}
		legs = append(legs, leg)
	}
	return append(legs, []*video.Frame{empty, empty}, nil)
}

// TestGroundFramesMatchesStacksOfOne pins the stacked pass to per-frame
// grounding, bit for bit on every kernel path: every frame of every leg
// gets exactly what GroundFrame gives it alone, and the stack's token
// count is the sum of its frames'.
func TestGroundFramesMatchesStacksOfOne(t *testing.T) {
	model, te := testModel()
	legs := stackLegs()
	texts := []string{
		"A red car side by side with another car, both positioned in the center of the road.",
		"A person walking on the street.",
		"A white dog inside a car, next to a woman wearing black clothes.",
	}
	underEachKernelPath(t, func(path string) {
		for _, text := range texts {
			qt := toks(te, text)
			for li, leg := range legs {
				got, tokens := model.GroundFrames(leg, qt)
				if len(got) != len(leg) {
					t.Fatalf("%s leg %d: %d results for %d frames", path, li, len(got), len(leg))
				}
				var wantTokens int
				for i, f := range leg {
					alone, n := model.GroundFrames([]*video.Frame{f}, qt)
					wantTokens += n
					if !sameGroundings(got[i], alone[0]) || (got[i] == nil) != (alone[0] == nil) {
						t.Fatalf("%s %q leg %d frame %d: stacked %v, alone %v", path, text, li, i, got[i], alone[0])
					}
					if len(f.Objects) == 0 && got[i] != nil {
						t.Fatalf("%s leg %d frame %d: object-free frame grounded %v", path, li, i, got[i])
					}
				}
				if tokens != wantTokens {
					t.Fatalf("%s leg %d: stack of %d region tokens, frames alone hold %d", path, li, tokens, wantTokens)
				}
			}
		}
		got, tokens := model.GroundFrames(legs[0], nil)
		if len(got) != len(legs[0]) || tokens != 0 {
			t.Fatalf("%s: empty query grounded %d frames, %d tokens", path, len(got), tokens)
		}
		for i, g := range got {
			if g != nil {
				t.Fatalf("%s: empty query grounded frame %d: %v", path, i, g)
			}
		}
	})
}

// TestGroundFramesAllocs bounds one stacked pass over a leg of 8: what
// remains is each object's term and neighbour lists plus one result
// slice and one backing array for the whole leg (163 measured), fewer
// than grounding the same frames one at a time (177).
func TestGroundFramesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	model, frames, toks := benchLeg()
	model.GroundFrames(frames, toks) // warm the pools
	stacked := testing.AllocsPerRun(10, func() { model.GroundFrames(frames, toks) })
	byFrame := testing.AllocsPerRun(10, func() {
		for _, f := range frames {
			model.GroundFrame(f, toks)
		}
	})
	if stacked > 170 || stacked >= byFrame {
		t.Fatalf("GroundFrames made %v allocations per leg of %d, want at most 170 and fewer than frame by frame (%v)",
			stacked, len(frames), byFrame)
	}
}

// TestResidualLNMatchesUnfused holds the fused residual layer norm to the
// three passes it replaced — scale delta by the gate, add it, then
// mat.LayerNorm every row — bit for bit, at row counts that exercise the
// four-row and single-row paths, on normal values salted with denormals,
// ±Inf and NaN.
func TestResidualLNMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	salt := func(m *mat.Matrix) {
		for i := range m.Data {
			switch rng.IntN(40) {
			case 0:
				m.Data[i] = math.Float32frombits(rng.Uint32() & 0x7fffff)
			case 1:
				m.Data[i] = float32(math.Inf(1 - 2*rng.IntN(2)))
			case 2:
				m.Data[i] = float32(math.NaN())
			}
		}
	}
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range []int{1, 3, 64} {
			x := mat.RandGaussian(rows, cols, 1, uint64(rows*100+cols))
			d := mat.RandGaussian(rows, cols, 3, uint64(rows*100+cols+1))
			if rows%3 == 2 {
				salt(x)
				salt(d)
			}
			want, scaled := x.Clone(), d.Clone()
			scaled.ScaleInPlace(attnGate)
			want.AddInPlace(scaled)
			for r := 0; r < rows; r++ {
				mat.LayerNorm(want.Row(r), nil, nil)
			}
			got := x.Clone()
			residualLN(got, d, attnGate)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%dx%d: element %d = %08x, unfused %08x", rows, cols, i,
						math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}
