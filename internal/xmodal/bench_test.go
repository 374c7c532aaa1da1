package xmodal

import "testing"

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
