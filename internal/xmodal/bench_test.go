package xmodal

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/query"
	"repro/internal/video"
)

// BenchmarkGroundFrame measures the per-keyframe rerank cost (Fig. 11(d)'s
// unit of work).
func BenchmarkGroundFrame(b *testing.B) {
	model, f, toks := benchFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		model.GroundFrame(f, toks)
	}
}

// BenchmarkGroundFrames measures one stacked pass over a leg of 8
// candidate keyframes, the unit of work a worker's stage 2 runs per query.
func BenchmarkGroundFrames(b *testing.B) {
	model, frames, toks := benchLeg()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		model.GroundFrames(frames, toks)
	}
}

// BenchmarkGroundLegFrameByFrame is BenchmarkGroundFrames' leg grounded
// one GroundFrame at a time, the stacked pass's baseline.
func BenchmarkGroundLegFrameByFrame(b *testing.B) {
	model, frames, toks := benchLeg()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, f := range frames {
			model.GroundFrame(f, toks)
		}
	}
}

// benchLeg is BenchmarkGroundFrames' leg: 8 keyframes with objects, taken
// every 7th frame across a small Bellevue dataset, and a Table II query.
func benchLeg() (*Model, []*video.Frame, []embed.Token) {
	space := embed.NewSpace(64, 32, 1)
	model := New(space, Config{Seed: 1})
	te := &embed.TextEncoder{Space: space}
	ds := datasets.Bellevue(datasets.Config{Seed: 1, Scale: 0.05})
	var frames []*video.Frame
	for vi := range ds.Videos {
		v := &ds.Videos[vi]
		for fi := 0; fi < len(v.Frames) && len(frames) < 8; fi += 7 {
			if len(v.Frames[fi].Objects) > 0 {
				frames = append(frames, &v.Frames[fi])
			}
		}
	}
	return model, frames, te.Tokens(query.Parse(ds.Queries[0].Text))
}
