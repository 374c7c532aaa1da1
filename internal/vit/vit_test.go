package vit

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/video"
)

func testCfg() Config {
	space := embed.NewSpace(64, 32, 42)
	return Config{Encoder: &embed.VisionEncoder{Space: space}}
}

func TestPatchesDefaultGrid(t *testing.T) {
	if n := (Config{}).Patches(); n != 16*9 {
		t.Fatalf("default patches = %d", n)
	}
}

// TestMinObjectnessRecorded pins the background filter's threshold. No
// answer shows it: foreground objectness is drawn from [0.75, 0.95) and
// background from [0.08, 0.18), so any threshold between the two keeps the
// same tokens, and only this check makes moving it a visible change.
func TestMinObjectnessRecorded(t *testing.T) {
	if got := float32(minObjectness); got != 0.5 {
		t.Fatalf("minObjectness = %v, recorded 0.5", got)
	}
}

func TestAnchorTiling(t *testing.T) {
	cfg := Config{}.withDefaults()
	a0 := anchor(cfg, 0)
	if a0.X != 0 || a0.Y != 0 {
		t.Fatalf("anchor 0 = %+v", a0)
	}
	last := anchor(cfg, cfg.GridW*cfg.GridH-1)
	if last.X+last.W < 0.999 || last.Y+last.H < 0.999 {
		t.Fatalf("last anchor must touch the bottom-right corner: %+v", last)
	}
}

func TestEncodeFrameEmptyScene(t *testing.T) {
	f := &video.Frame{VideoID: 1, Context: []string{"road"}}
	tokens := EncodeFrame(testCfg(), f)
	if len(tokens) != 0 {
		t.Fatalf("object-free frame must yield no foreground tokens, got %d", len(tokens))
	}
}

func TestEncodeFrameProducesTokensPerObject(t *testing.T) {
	f := &video.Frame{
		VideoID: 1, Index: 3, Context: []string{"road"},
		Objects: []video.Object{
			{Track: 10, Class: "car", Attrs: []string{"red"}, Box: video.Box{X: 0.40, Y: 0.40, W: 0.14, H: 0.12}},
			{Track: 11, Class: "bus", Attrs: []string{"green"}, Box: video.Box{X: 0.05, Y: 0.05, W: 0.22, H: 0.15}},
		},
	}
	tokens := EncodeFrame(testCfg(), f)
	if len(tokens) == 0 {
		t.Fatal("no tokens")
	}
	tracks := map[int64]int{}
	for _, tok := range tokens {
		tracks[tok.Track]++
		if len(tok.Embedding) != 64 || len(tok.Class) != 32 {
			t.Fatalf("token dims: %d/%d", len(tok.Embedding), len(tok.Class))
		}
		if tok.Objectness < 0.5 {
			t.Fatalf("foreground token below threshold: %v", tok.Objectness)
		}
	}
	if tracks[10] == 0 || tracks[11] == 0 {
		t.Fatalf("both objects must yield tokens: %v", tracks)
	}
}

func TestPredictedBoxesNearTruth(t *testing.T) {
	truth := video.Box{X: 0.40, Y: 0.40, W: 0.16, H: 0.12}
	f := &video.Frame{
		VideoID: 2, Index: 7, Context: []string{"road"},
		Objects: []video.Object{{Track: 20, Class: "car", Box: truth}},
	}
	tokens := EncodeFrame(testCfg(), f)
	if len(tokens) == 0 {
		t.Fatal("no tokens")
	}
	for _, tok := range tokens {
		if iou := tok.Box.IoU(truth); iou < 0.5 {
			t.Fatalf("refined box IoU = %v below detection threshold", iou)
		}
	}
}

func TestSmallestObjectWins(t *testing.T) {
	// A small dog inside a large truck's box: patches on the dog must
	// belong to the dog.
	dogBox := video.Box{X: 0.45, Y: 0.45, W: 0.08, H: 0.08}
	f := &video.Frame{
		VideoID: 1, Index: 0,
		Objects: []video.Object{
			{Track: 1, Class: "truck", Box: video.Box{X: 0.2, Y: 0.2, W: 0.6, H: 0.6}},
			{Track: 2, Class: "dog", Attrs: []string{"white"}, Box: dogBox},
		},
	}
	tokens := EncodeFrame(testCfg(), f)
	foundDog := false
	for _, tok := range tokens {
		if tok.Track == 2 {
			foundDog = true
			if tok.Box.IoU(dogBox) < 0.5 {
				t.Fatalf("dog token box should be near the dog: %+v", tok.Box)
			}
		}
	}
	if !foundDog {
		t.Fatal("small object lost to the large one")
	}
}

func TestEncodeFrameDeterministic(t *testing.T) {
	f := &video.Frame{
		VideoID: 1, Index: 3, Context: []string{"road"},
		Objects: []video.Object{{Track: 10, Class: "car", Box: video.Box{X: 0.4, Y: 0.4, W: 0.14, H: 0.12}}},
	}
	cfg := testCfg()
	a := EncodeFrame(cfg, f)
	b := EncodeFrame(cfg, f)
	if len(a) != len(b) {
		t.Fatal("token counts differ")
	}
	for i := range a {
		if a[i].Patch != b[i].Patch || a[i].Box != b[i].Box || !mat.AlmostEqual(a[i].Embedding, b[i].Embedding, 0) {
			t.Fatal("tokens differ between runs")
		}
	}
}

func TestClassEmbeddingIsProjection(t *testing.T) {
	space := embed.NewSpace(64, 32, 42)
	cfg := Config{Encoder: &embed.VisionEncoder{Space: space}}
	f := &video.Frame{
		VideoID: 1, Index: 0,
		Objects: []video.Object{{Track: 1, Class: "car", Box: video.Box{X: 0.4, Y: 0.4, W: 0.2, H: 0.2}}},
	}
	tokens := EncodeFrame(cfg, f)
	if len(tokens) == 0 {
		t.Fatal("no tokens")
	}
	want := space.Project(tokens[0].Embedding)
	if !mat.AlmostEqual(tokens[0].Class, want, 1e-5) {
		t.Fatal("Class must be the projection of Embedding")
	}
}

func TestHigherResolutionGridMoreTokens(t *testing.T) {
	f := &video.Frame{
		VideoID: 1, Index: 0,
		Objects: []video.Object{{Track: 1, Class: "bus", Box: video.Box{X: 0.2, Y: 0.2, W: 0.5, H: 0.4}}},
	}
	space := embed.NewSpace(64, 32, 42)
	lo := Config{GridW: 8, GridH: 6, Encoder: &embed.VisionEncoder{Space: space}}
	hi := Config{GridW: 32, GridH: 18, Encoder: &embed.VisionEncoder{Space: space}}
	if len(EncodeFrame(hi, f)) <= len(EncodeFrame(lo, f)) {
		t.Fatal("finer grids must produce more tokens for the same object")
	}
}
