package bench

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/keyframe"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/vectordb"
)

// LOVOMethod adapts a core.System to the baselines.Method interface so the
// harness can drive every system uniformly. Variant fields select the
// ablations of Table IV and the ANN variants of Table V.
type LOVOMethod struct {
	// Label overrides the method name ("LOVO(BF)").
	Label string
	// Index selects the vector index (default IMI).
	Index vectordb.IndexKind
	// NoRerank disables stage 2.
	NoRerank bool
	// NoANNS forces exhaustive search.
	NoANNS bool
	// NoKeyframe indexes every frame.
	NoKeyframe bool
	// Seed drives the system.
	Seed uint64
	// FastK overrides the candidate depth.
	FastK int

	sys  *core.System
	last *core.Result
}

var _ baselines.Method = (*LOVOMethod)(nil)

// NewLOVO returns the standard configuration.
func NewLOVO(seed uint64) *LOVOMethod { return &LOVOMethod{Seed: seed} }

// Name implements baselines.Method.
func (l *LOVOMethod) Name() string {
	if l.Label != "" {
		return l.Label
	}
	return "LOVO"
}

// Prepare implements baselines.Method: one-time Video Summary + indexing.
func (l *LOVOMethod) Prepare(ds *datasets.Dataset) (time.Duration, error) {
	cfg := core.Config{Seed: l.Seed, FastK: l.FastK}
	if l.Index != "" {
		cfg.Index = l.Index
	}
	if l.NoKeyframe {
		cfg.Keyframe = keyframe.All{}
	}
	sys, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := range ds.Videos {
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			return 0, err
		}
	}
	if err := sys.BuildIndex(); err != nil {
		return 0, err
	}
	l.sys = sys
	return time.Since(start), nil
}

// Supports implements baselines.Method: open vocabulary.
func (l *LOVOMethod) Supports(text string) bool {
	return len(query.Parse(text).Terms) > 0
}

// Query implements baselines.Method. Retrieval budgets scale with the
// requested depth (the paper's 10×-ground-truth protocol): broader queries
// get a deeper fast search and a larger rerank window.
func (l *LOVOMethod) Query(text string, depth int) ([]metrics.Retrieved, time.Duration, error) {
	fastK := l.FastK
	if fastK == 0 {
		fastK = 3 * depth
		if fastK < 250 {
			fastK = 250
		}
		if fastK > 600 {
			fastK = 600
		}
	}
	rerankFrames := depth / 2
	if rerankFrames < 16 {
		rerankFrames = 16
	}
	if rerankFrames > 40 {
		rerankFrames = 40
	}
	res, err := core.Query(rootCtx(), l.sys, text, core.QueryOptions{
		DisableRerank: l.NoRerank,
		Exhaustive:    l.NoANNS,
		FastK:         fastK,
		TopN:          rerankFrames,
		RerankFrames:  rerankFrames,
	})
	if err != nil {
		return nil, 0, err
	}
	l.last = res
	out := make([]metrics.Retrieved, 0, len(res.Objects))
	for _, o := range res.Objects {
		out = append(out, metrics.Retrieved{
			VideoID: o.VideoID, FrameIdx: o.FrameIdx, Box: o.Box, Score: o.Score,
		})
	}
	out = metrics.Truncate(out, depth)
	return out, res.Total(), nil
}

// LastResult exposes the stage timings of the most recent query.
func (l *LOVOMethod) LastResult() *core.Result { return l.last }

// System exposes the underlying system (stats).
func (l *LOVOMethod) System() *core.System { return l.sys }
