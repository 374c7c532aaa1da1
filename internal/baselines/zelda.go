package baselines

import (
	"sort"
	"time"

	"repro/internal/ann"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/keyframe"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/video"
)

// ZELDA is the vision-based baseline: CLIP-style global frame embeddings
// indexed flat, queried with the whole-sentence text embedding. It handles
// open vocabulary and is fast (no rerank), but the global pooling dilutes
// small objects and it proposes regions by saliency — the largest objects
// in a retrieved frame — which is exactly the "largest but incomplete
// object" failure mode the paper's qualitative study shows.
type ZELDA struct {
	space  *embed.Space
	vision *embed.VisionEncoder
	text   *embed.TextEncoder
	rows   *ann.Rows
	frames map[int64]*video.Frame
	nextID int64
	ids    map[int64][2]int
}

// NewZELDA returns the baseline sharing LOVO's embedding-space parameters.
func NewZELDA() *ZELDA {
	space := embed.NewSpace(64, 32, 0x2e1da)
	return &ZELDA{
		space:  space,
		vision: &embed.VisionEncoder{Space: space, Seed: 0x2e1da},
		text:   &embed.TextEncoder{Space: space},
	}
}

// Name implements Method.
func (z *ZELDA) Name() string { return "ZELDA" }

// zeldaEncodeCostPerFrame is the CLIP image-encoder forward pass, on par
// with LOVO's per-frame ViT cost (the paper's Table III shows comparable
// processing times).
const zeldaEncodeCostPerFrame = 13_000

// Prepare implements Method: embed sampled frames globally.
func (z *ZELDA) Prepare(ds *datasets.Dataset) (time.Duration, error) {
	start := time.Now()
	z.rows = ann.NewRows(z.space.Dim)
	z.frames = make(map[int64]*video.Frame)
	z.ids = make(map[int64][2]int)
	kf := keyframe.Uniform{Interval: 4}
	for vi := range ds.Videos {
		v := &ds.Videos[vi]
		for _, fi := range kf.Select(v) {
			f := &v.Frames[fi]
			burn(zeldaEncodeCostPerFrame)
			emb := z.vision.FrameEmbedding(f)
			id := z.nextID
			z.nextID++
			z.rows.Append(id, emb)
			fc := *f
			z.frames[id] = &fc
			z.ids[id] = [2]int{v.ID, f.Index}
		}
	}
	return time.Since(start), nil
}

// Supports implements Method: open vocabulary.
func (z *ZELDA) Supports(text string) bool {
	return len(query.Parse(text).Terms) > 0
}

// Query implements Method.
func (z *ZELDA) Query(text string, depth int) ([]metrics.Retrieved, time.Duration, error) {
	start := time.Now()
	p := query.Parse(text)
	// CLIP encodes the whole sentence; ZELDA has no stage that recovers
	// relations, so the fast vector is all it has.
	q := z.text.FastVec(p)
	if len(p.Terms) == 0 {
		return nil, time.Since(start), nil
	}
	hits := z.rows.TopK(q, depth)
	var out []metrics.Retrieved
	for _, h := range hits {
		f := z.frames[h.ID]
		loc := z.ids[h.ID]
		// Saliency proposals: the largest objects dominate the global
		// embedding, so they are what the frame-level score localises.
		idxs := make([]int, len(f.Objects))
		for i := range idxs {
			idxs[i] = i
		}
		sort.Slice(idxs, func(a, b int) bool {
			return f.Objects[idxs[a]].Box.Area() > f.Objects[idxs[b]].Box.Area()
		})
		for n, oi := range idxs {
			if n == 2 {
				break
			}
			out = append(out, metrics.Retrieved{
				VideoID: loc[0], FrameIdx: loc[1],
				Box:   f.Objects[oi].Box,
				Score: h.Score - float32(n)*0.01,
			})
		}
	}
	sortRetrieved(out)
	out = metrics.Truncate(out, depth)
	return out, time.Since(start), nil
}
