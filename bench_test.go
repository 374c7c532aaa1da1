package lovo

// One testing.B benchmark per table and figure of the paper's evaluation
// section. Each benchmark regenerates its experiment through the harness at
// smoke scale and reports the headline metric the paper's artifact shows,
// so `go test -bench=. -benchmem` doubles as a shape check across the whole
// evaluation. Run `go run ./cmd/lovobench` for full-scale tables.

import (
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/query"
	"repro/internal/vectordb"
	"repro/internal/video"
	"repro/internal/vit"
	"repro/internal/xmodal"
)

// benchOpts are the smoke-scale harness options used by the per-figure
// benchmarks.
var benchOpts = bench.Options{Seed: 7, Quick: true, Scale: 0.05}

// runExperiment executes a harness experiment b.N times.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(name, benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Motivation regenerates Fig. 2(a): method-family execution
// times across query complexities.
func BenchmarkFig2Motivation(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig6Accuracy regenerates Fig. 6: AveP of LOVO and all baselines.
func BenchmarkFig6Accuracy(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Qualitative regenerates Fig. 7: top-1 retrievals for Q4.2.
func BenchmarkFig7Qualitative(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Runtime regenerates Fig. 8: search/total time vs QD-search.
func BenchmarkFig8Runtime(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable3Emerging regenerates Table III: vision-based and
// end-to-end method times.
func BenchmarkTable3Emerging(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig9Distribution regenerates Fig. 9: LOVO's time split.
func BenchmarkFig9Distribution(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10Scalability regenerates Fig. 10: times vs video duration.
func BenchmarkFig10Scalability(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11aProcessing regenerates Fig. 11(a): processing vs frames.
func BenchmarkFig11aProcessing(b *testing.B) { runExperiment(b, "fig11a") }

// BenchmarkFig11bIndexScale regenerates Fig. 11(b): index size vs search.
func BenchmarkFig11bIndexScale(b *testing.B) { runExperiment(b, "fig11b") }

// BenchmarkFig11cPerEntity regenerates Fig. 11(c): per-entity search time.
func BenchmarkFig11cPerEntity(b *testing.B) { runExperiment(b, "fig11c") }

// BenchmarkFig11dRerank regenerates Fig. 11(d): rerank time vs objects.
func BenchmarkFig11dRerank(b *testing.B) { runExperiment(b, "fig11d") }

// BenchmarkTable4Ablation regenerates Table IV: module ablations.
func BenchmarkTable4Ablation(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5ANNVariants regenerates Table V: BF / IVF-PQ / HNSW.
func BenchmarkTable5ANNVariants(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable7ActivityNet regenerates Table VII: the QA extension.
func BenchmarkTable7ActivityNet(b *testing.B) { runExperiment(b, "table7") }

// ---- Micro-benchmarks for the primitive stages, reported per operation ----

// BenchmarkVideoSummaryPerFrame measures the one-time per-keyframe encoding
// cost (the slope of Fig. 11(a)).
func BenchmarkVideoSummaryPerFrame(b *testing.B) {
	ds := datasets.Bellevue(datasets.Config{Seed: 7, Scale: 0.05})
	space := embed.NewSpace(64, 32, 1)
	cfg := vit.Config{Encoder: &embed.VisionEncoder{Space: space}}
	frames := ds.Videos[0].Frames
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vit.EncodeFrame(cfg, &frames[i%len(frames)])
	}
}

// BenchmarkFastSearch measures one ANNS lookup against an IMI collection
// (the sub-millisecond stage of Table IV).
func BenchmarkFastSearch(b *testing.B) {
	db := vectordb.New()
	col, err := db.CreateCollection("patches", vectordb.Schema{Dim: 32, Normalize: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		if err := col.Insert(int64(i+1), mat.UnitGaussianVec(32, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := col.BuildIndex(vectordb.IndexIMI, vectordb.IndexOptions{P: 4, M: 64, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	q := mat.UnitGaussianVec(32, 999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := col.Search(q, 100, ann.Params{NProbe: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRerankPerKeyframe measures one cross-modality grounding pass
// (the unit of Fig. 11(d)).
func BenchmarkRerankPerKeyframe(b *testing.B) {
	space := embed.NewSpace(64, 32, 1)
	model := xmodal.New(space, xmodal.Config{Seed: 1})
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.GroundFrame(f, toks)
	}
}

// BenchmarkEndToEndQuery measures a full Algorithm 2 query against an
// ingested workload.
func BenchmarkEndToEndQuery(b *testing.B) {
	sys, err := Open(Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := LoadDataset("bellevue", DatasetConfig{Seed: 7, Scale: 0.06})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.IngestDataset(ds); err != nil {
		b.Fatal(err)
	}
	if err := sys.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query("A red car driving in the center of the road.", QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraNProbe sweeps Algorithm 1's A parameter (recall/latency).
func BenchmarkExtraNProbe(b *testing.B) { runExperiment(b, "extra-nprobe") }

// BenchmarkExtraStreaming compares batch rebuilds with segmented streaming
// ingest (the paper's Section IX future work).
func BenchmarkExtraStreaming(b *testing.B) { runExperiment(b, "extra-streaming") }
