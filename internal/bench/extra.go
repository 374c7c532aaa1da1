package bench

import (
	"fmt"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/vectordb"
)

func init() {
	register("extra-nprobe", extraNProbe)
	register("extra-streaming", extraStreaming)
}

// extraNProbe sweeps Algorithm 1's A parameter (clusters probed per
// subspace): the recall/latency knob behind the paper's "w/o ANNS"
// ablation, measured here as fast-search recall against exhaustive search.
func extraNProbe(o Options) (*Table, error) {
	ds := datasets.Bellevue(datasets.Config{Seed: o.Seed, Scale: o.Scale})
	sys, err := core.New(core.Config{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	for i := range ds.Videos {
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			return nil, err
		}
	}
	if err := sys.BuildIndex(); err != nil {
		return nil, err
	}
	col := sys.Collection()

	// Query vectors: a mixture of stored vectors (self-recall) under the
	// benchmark's term mixtures.
	queries := make([]mat.Vec, 0, 16)
	for i := 0; i < 16; i++ {
		queries = append(queries, mat.UnitGaussianVec(32, o.Seed*31+uint64(i)))
	}
	const k = 100
	exact := make([][]mat.Scored, len(queries))
	for i, q := range queries {
		hits, err := col.Search(q, k, ann.Params{Exhaustive: true})
		if err != nil {
			return nil, err
		}
		exact[i] = hits
	}
	t := &Table{
		ID:     "extra-nprobe",
		Title:  "Algorithm 1's A (clusters probed per subspace): recall vs fast-search latency",
		Header: []string{"A", "recall@100", "fast search"},
	}
	probes := []int{2, 4, 8, 16, 32, 64}
	if o.Quick {
		probes = []int{4, 16, 64}
	}
	for _, a := range probes {
		var recall float64
		start := time.Now()
		for i, q := range queries {
			hits, err := col.Search(q, k, ann.Params{NProbe: a})
			if err != nil {
				return nil, err
			}
			want := map[int64]bool{}
			for _, h := range exact[i] {
				want[h.ID] = true
			}
			hit := 0
			for _, h := range hits {
				if want[h.ID] {
					hit++
				}
			}
			if len(exact[i]) > 0 {
				recall += float64(hit) / float64(len(exact[i]))
			}
		}
		avg := time.Since(start) / time.Duration(len(queries))
		t.Add(fmt.Sprintf("%d", a), f3(recall/float64(len(queries))), ms(avg))
	}
	t.Note("expected shape: recall rises monotonically with A toward exhaustive; latency grows with probed volume")
	return t, nil
}

// extraStreaming compares batch indexing with segmented streaming ingest
// (the paper's Section IX future work): per-batch indexing cost must stay
// flat for streaming while accuracy holds.
func extraStreaming(o Options) (*Table, error) {
	ds := datasets.QVHighlights(datasets.Config{Seed: o.Seed, Scale: o.Scale})
	const q = "A white dog inside a car."
	gt := datasets.GroundTruth(ds, queryTerms(q))
	depth := metrics.Depth(gt)

	t := &Table{
		ID:     "extra-streaming",
		Title:  "Batch rebuild vs segmented streaming ingest",
		Header: []string{"mode", "index ops", "total index time", "max single build", "AveP"},
	}

	run := func(label string, streaming bool) error {
		cfg := core.Config{Seed: o.Seed, Streaming: streaming, SegmentSize: 400}
		sys, err := core.New(cfg)
		if err != nil {
			return err
		}
		var totalIdx, maxIdx time.Duration
		ops := 0
		prev := time.Duration(0)
		for i := range ds.Videos {
			if err := sys.Ingest(&ds.Videos[i]); err != nil {
				return err
			}
			// Batch mode pays a full rebuild to stay queryable after
			// each arriving video; streaming just seals.
			if err := sys.BuildIndex(); err != nil {
				return err
			}
			ops++
			step := sys.Stats().Indexing - prev
			prev = sys.Stats().Indexing
			totalIdx += step
			if step > maxIdx {
				maxIdx = step
			}
		}
		res, err := core.Query(rootCtx(), sys, q, core.QueryOptions{FastK: 3 * depth, TopN: 40, RerankFrames: 40})
		if err != nil {
			return err
		}
		retrieved := make([]metrics.Retrieved, 0, len(res.Objects))
		for _, obj := range res.Objects {
			retrieved = append(retrieved, metrics.Retrieved{
				VideoID: obj.VideoID, FrameIdx: obj.FrameIdx, Box: obj.Box, Score: obj.Score,
			})
		}
		ap := metrics.AveragePrecision(metrics.Truncate(retrieved, depth), gt, metrics.DefaultIoU)
		t.Add(label, fmt.Sprintf("%d", ops), secs(totalIdx), secs(maxIdx), f3(ap))
		return nil
	}
	if err := run("batch (full rebuild per arrival)", false); err != nil {
		return nil, err
	}
	if err := run("streaming (seal per arrival)", true); err != nil {
		return nil, err
	}
	t.Note("expected shape: streaming's total and per-arrival indexing cost undercut repeated full rebuilds at equal accuracy")
	return t, nil
}

var _ = vectordb.IndexIMI // keep import stable if experiments change
