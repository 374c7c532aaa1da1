package xmodal

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/query"
	"repro/internal/video"
)

func testModel() (*Model, *embed.TextEncoder) {
	space := embed.NewSpace(64, 32, 42)
	return New(space, Config{Seed: 11}), &embed.TextEncoder{Space: space}
}

func toks(te *embed.TextEncoder, q string) []embed.Token {
	return te.Tokens(query.Parse(q))
}

func TestMHAShapePreserved(t *testing.T) {
	m := newMHA(64, 1)
	a := mat.RandGaussian(5, 64, 1, 2)
	b := mat.RandGaussian(3, 64, 1, 3)
	ar := mat.GetArena()
	defer ar.Release()
	out := m.apply(ar, a, []seg{{0, 5}}, b, []seg{{0, 3}})
	if out.Rows != 5 || out.Cols != 64 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
}

func TestEnhancerPreservesSignal(t *testing.T) {
	// Near-identity layers must keep token directions recognisable.
	space := embed.NewSpace(64, 32, 42)
	l := newEnhancerLayer(64, 5)
	car := space.TermVec("car")
	dog := space.TermVec("dog")
	xi := mat.FromRows([]mat.Vec{car})
	xt := mat.FromRows([]mat.Vec{mat.Clone(car)})
	ar := mat.GetArena()
	defer ar.Release()
	l.apply(ar, xi, []seg{{0, 1}}, xt, []seg{{0, 1}})
	outRow := mat.Normalized(xi.Row(0))
	if mat.Dot(outRow, car) <= mat.Dot(outRow, dog) {
		t.Fatal("enhanced token lost its identity")
	}
}

func TestGroundFrameRanksMatchingObjectFirst(t *testing.T) {
	m, te := testModel()
	f := &video.Frame{
		VideoID: 1, Index: 0, Context: []string{"road"},
		Objects: []video.Object{
			{Track: 1, Class: "car", Attrs: []string{"red"}, Behaviors: []string{"driving"}, Box: video.Box{X: 0.44, Y: 0.4, W: 0.1, H: 0.07}},
			{Track: 2, Class: "bus", Attrs: []string{"blue"}, Behaviors: []string{"driving"}, Box: video.Box{X: 0.1, Y: 0.4, W: 0.2, H: 0.11}},
			{Track: 3, Class: "car", Attrs: []string{"black"}, Behaviors: []string{"driving"}, Box: video.Box{X: 0.7, Y: 0.6, W: 0.1, H: 0.07}},
		},
	}
	g := m.GroundFrame(f, toks(te, "a red car driving on the road"))
	if len(g) != 3 {
		t.Fatalf("groundings = %d", len(g))
	}
	if g[0].ObjectIdx != 0 {
		t.Fatalf("red car must rank first, got object %d", g[0].ObjectIdx)
	}
}

func TestGroundFrameResolvesRelations(t *testing.T) {
	// Two frames: one with a lone red car in the centre, one with a red
	// car side by side with another car. The relation query must prefer
	// the pair — this is what fast search cannot do.
	m, te := testModel()
	lone := &video.Frame{
		VideoID: 1, Index: 0, Context: []string{"road"},
		Objects: []video.Object{
			{Track: 1, Class: "car", Attrs: []string{"red"}, Behaviors: []string{"driving"}, Box: video.Box{X: 0.45, Y: 0.4, W: 0.1, H: 0.07}},
		},
	}
	pair := &video.Frame{
		VideoID: 1, Index: 1, Context: []string{"road"},
		Objects: []video.Object{
			{Track: 2, Class: "car", Attrs: []string{"red"}, Behaviors: []string{"driving"}, Box: video.Box{X: 0.38, Y: 0.4, W: 0.1, H: 0.07}},
			{Track: 3, Class: "car", Attrs: []string{"white"}, Behaviors: []string{"driving"}, Box: video.Box{X: 0.55, Y: 0.41, W: 0.1, H: 0.07}},
		},
	}
	qt := toks(te, "A red car side by side with another car, both positioned in the center of the road.")
	gLone := m.GroundFrame(lone, qt)
	gPair := m.GroundFrame(pair, qt)
	if len(gLone) == 0 || len(gPair) == 0 {
		t.Fatal("missing groundings")
	}
	if gPair[0].Score <= gLone[0].Score {
		t.Fatalf("side-by-side pair (%v) must outscore lone car (%v)", gPair[0].Score, gLone[0].Score)
	}
}

func TestGroundFrameNeighborTerms(t *testing.T) {
	// Q3.4: the dog next to a woman in black must outscore a lone dog.
	m, te := testModel()
	lone := &video.Frame{
		VideoID: 1, Index: 0,
		Objects: []video.Object{
			{Track: 1, Class: "dog", Attrs: []string{"white"}, Inside: "car", Box: video.Box{X: 0.4, Y: 0.45, W: 0.12, H: 0.12}},
		},
	}
	withWoman := &video.Frame{
		VideoID: 1, Index: 1,
		Objects: []video.Object{
			{Track: 2, Class: "dog", Attrs: []string{"white"}, Inside: "car", Box: video.Box{X: 0.4, Y: 0.45, W: 0.12, H: 0.12}},
			{Track: 3, Class: "person", Attrs: []string{"woman", "black", "clothing"}, Inside: "car", Behaviors: []string{"sitting"}, Box: video.Box{X: 0.52, Y: 0.3, W: 0.14, H: 0.3}},
		},
	}
	qt := toks(te, "A white dog inside a car, next to a woman wearing black clothes.")
	gl := m.GroundFrame(lone, qt)
	gw := m.GroundFrame(withWoman, qt)
	var dogScore float32
	for _, g := range gw {
		if g.ObjectIdx == 0 {
			dogScore = g.Score
		}
	}
	if dogScore <= gl[0].Score {
		t.Fatalf("dog-with-woman (%v) must outscore lone dog (%v)", dogScore, gl[0].Score)
	}
}

func TestGroundFrameEmptyInputs(t *testing.T) {
	m, te := testModel()
	if g := m.GroundFrame(&video.Frame{}, toks(te, "car")); g != nil {
		t.Fatal("object-free frame must ground nothing")
	}
	f := &video.Frame{Objects: []video.Object{{Track: 1, Class: "car", Box: video.Box{X: 0.4, Y: 0.4, W: 0.1, H: 0.1}}}}
	if g := m.GroundFrame(f, nil); g != nil {
		t.Fatal("empty query must ground nothing")
	}
}

func TestGroundFrameDeterministic(t *testing.T) {
	m, te := testModel()
	f := &video.Frame{
		VideoID: 1, Index: 2, Context: []string{"road"},
		Objects: []video.Object{
			{Track: 1, Class: "car", Attrs: []string{"red"}, Box: video.Box{X: 0.4, Y: 0.4, W: 0.1, H: 0.07}},
		},
	}
	qt := toks(te, "red car")
	a := m.GroundFrame(f, qt)
	b := m.GroundFrame(f, qt)
	if len(a) != len(b) || a[0].Score != b[0].Score {
		t.Fatal("grounding must be deterministic")
	}
}

func TestGroundingsSorted(t *testing.T) {
	m, te := testModel()
	f := &video.Frame{
		VideoID: 1, Index: 0, Context: []string{"road"},
		Objects: []video.Object{
			{Track: 1, Class: "bus", Attrs: []string{"green"}, Box: video.Box{X: 0.1, Y: 0.4, W: 0.2, H: 0.12}},
			{Track: 2, Class: "car", Attrs: []string{"red"}, Box: video.Box{X: 0.45, Y: 0.4, W: 0.1, H: 0.07}},
			{Track: 3, Class: "person", Box: video.Box{X: 0.7, Y: 0.3, W: 0.05, H: 0.17}},
		},
	}
	g := m.GroundFrame(f, toks(te, "green bus"))
	for i := 1; i < len(g); i++ {
		if g[i].Score > g[i-1].Score {
			t.Fatal("groundings must be sorted descending")
		}
	}
	if g[0].ObjectIdx != 0 {
		t.Fatalf("green bus must win, got %d", g[0].ObjectIdx)
	}
}

func TestTokenWorkScales(t *testing.T) {
	m, _ := testModel()
	if m.TokenWork(10, 5) >= m.TokenWork(100, 5) {
		t.Fatal("work must grow with region tokens")
	}
}
