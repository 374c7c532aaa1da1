package bench

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/ann"
	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/query"
	"repro/internal/vectordb"
	"repro/internal/video"
	"repro/internal/xmodal"
)

func init() {
	register("fig10", fig10Scalability)
	register("fig11a", fig11aProcessing)
	register("fig11b", fig11bIndexScale)
	register("fig11c", fig11cPerEntity)
	register("fig11d", fig11dRerank)
}

// fig10Scalability regenerates Fig. 10: total execution and query search
// time versus dataset duration for VOCAL, MIRIS, FiGO and LOVO.
func fig10Scalability(o Options) (*Table, error) {
	scales := []float64{0.5, 1, 2, 4}
	if o.Quick {
		scales = []float64{0.5, 1.5}
	}
	t := &Table{
		ID:    "fig10",
		Title: "Scalability vs video duration (seconds)",
		Header: []string{"duration(s)",
			"VOCAL total", "MIRIS total", "FiGO total", "LOVO total",
			"VOCAL search", "MIRIS search", "FiGO search", "LOVO search"},
	}
	const q = "A red car driving in the center of the road."
	for _, sc := range scales {
		ds := datasets.Bellevue(datasets.Config{Seed: o.Seed, Scale: o.Scale * sc})
		methods := []baselines.Method{
			baselines.NewVOCAL(), baselines.NewMIRIS(), baselines.NewFiGO(), NewLOVO(o.Seed),
		}
		var totals, searches []string
		for _, m := range methods {
			prep, err := m.Prepare(ds)
			if err != nil {
				return nil, err
			}
			_, s, err := m.Query(q, 100)
			if err != nil {
				return nil, err
			}
			totals = append(totals, secs(prep+s))
			searches = append(searches, secs(s))
		}
		row := []string{fmt.Sprintf("%.0f", ds.Duration())}
		row = append(row, totals...)
		row = append(row, searches...)
		t.Add(row...)
	}
	t.Note("expected shape: QD-search times grow with duration; LOVO search stays near-flat")
	return t, nil
}

// fig11aProcessing regenerates Fig. 11(a): processing time versus frame
// count, expecting a linear relationship (constant per-frame cost).
func fig11aProcessing(o Options) (*Table, error) {
	scales := []float64{0.5, 1, 2, 4}
	if o.Quick {
		scales = []float64{0.5, 1.5}
	}
	t := &Table{
		ID:     "fig11a",
		Title:  "Processing time vs frame count",
		Header: []string{"frames", "processing(s)", "ms/frame"},
	}
	var perFrame []float64
	for _, sc := range scales {
		ds := datasets.Bellevue(datasets.Config{Seed: o.Seed, Scale: o.Scale * sc})
		lovo := NewLOVO(o.Seed)
		if _, err := lovo.Prepare(ds); err != nil {
			return nil, err
		}
		st := lovo.System().Stats()
		pf := st.Processing.Seconds() * 1000 / float64(st.Frames)
		perFrame = append(perFrame, pf)
		t.Add(fmt.Sprintf("%d", st.Frames), secs(st.Processing), fmt.Sprintf("%.3f", pf))
	}
	t.Note("expected shape: ms/frame roughly constant (paper: ~0.08 s/frame on GPU encoders)")
	_ = perFrame
	return t, nil
}

// fig11bIndexScale regenerates Fig. 11(b): index size and fast-search time
// versus inserted entities.
func fig11bIndexScale(o Options) (*Table, error) {
	sizes := []int{5_000, 20_000, 60_000, 120_000}
	if o.Quick {
		sizes = []int{2_000, 8_000}
	}
	t := &Table{
		ID:     "fig11b",
		Title:  "Index scale: entities vs storage and fast-search time",
		Header: []string{"entities", "data size (MB)", "search time"},
	}
	const dim = 32
	rng := rand.New(rand.NewPCG(o.Seed, 0xf11b))
	centers := make([]mat.Vec, 64)
	for i := range centers {
		centers[i] = mat.UnitGaussianVec(dim, uint64(i)+o.Seed*17)
	}
	for _, n := range sizes {
		db := vectordb.New()
		col, err := db.CreateCollection("patches", vectordb.Schema{Dim: dim, Normalize: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v := mat.Clone(centers[i%len(centers)])
			for d := range v {
				v[d] += float32(rng.NormFloat64() * 0.2)
			}
			if err := col.Insert(int64(i+1), v); err != nil {
				return nil, err
			}
		}
		if err := col.BuildIndex(vectordb.IndexIMI, vectordb.IndexOptions{P: 4, M: 64, Seed: o.Seed}); err != nil {
			return nil, err
		}
		st := col.Stats()
		// Average fast-search latency over a query batch.
		const queries = 20
		start := time.Now()
		for qi := 0; qi < queries; qi++ {
			if _, err := col.Search(centers[qi%len(centers)], 100, ann.Params{NProbe: 8}); err != nil {
				return nil, err
			}
		}
		avg := time.Since(start) / queries
		mb := float64(st.RawBytes+st.IndexBytes) / (1 << 20)
		t.Add(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", mb), ms(avg))
	}
	t.Note("expected shape: storage grows linearly; search time stays well below 1 s")
	return t, nil
}

// fig11cPerEntity regenerates Fig. 11(c): fast-search time per stored
// entity for each dataset.
func fig11cPerEntity(o Options) (*Table, error) {
	dss := datasets.All(datasets.Config{Seed: o.Seed, Scale: o.Scale})
	t := &Table{
		ID:     "fig11c",
		Title:  "Fast-search time per entity per dataset",
		Header: []string{"dataset", "entities", "fast search", "us/entity"},
	}
	for _, ds := range dss {
		lovo := NewLOVO(o.Seed)
		if _, err := lovo.Prepare(ds); err != nil {
			return nil, err
		}
		var fast time.Duration
		n := 0
		queries := ds.Queries
		if o.Quick {
			queries = queries[:1]
		}
		for _, q := range queries {
			if _, _, err := lovo.Query(q.Text, 100); err != nil {
				return nil, err
			}
			fast += lovo.LastResult().FastSearch
			n++
		}
		avg := fast / time.Duration(n)
		entities := lovo.System().Entities()
		perEntity := float64(avg.Nanoseconds()) / 1000 / float64(entities)
		t.Add(ds.Name, fmt.Sprintf("%d", entities), ms(avg), fmt.Sprintf("%.4f", perEntity))
	}
	t.Note("expected shape: per-entity time flat across datasets (paper: ~1e-4 s/object scale)")
	return t, nil
}

// fig11dRerank regenerates Fig. 11(d): cross-modality rerank time versus
// the number of objects examined.
func fig11dRerank(o Options) (*Table, error) {
	counts := []int{200, 500, 1000, 2000}
	if o.Quick {
		counts = []int{100, 300}
	}
	t := &Table{
		ID:     "fig11d",
		Title:  "Rerank time vs objects examined",
		Header: []string{"objects", "rerank time", "ms/keyframe"},
	}
	space := embed.NewSpace(64, 32, o.Seed)
	model := xmodal.New(space, xmodal.Config{Seed: o.Seed})
	text := &embed.TextEncoder{Space: space}
	toks := text.Tokens(query.Parse("A red car driving in the center of the road."))
	const objectsPerFrame = 5
	for _, n := range counts {
		frames := n / objectsPerFrame
		start := time.Now()
		for fi := 0; fi < frames; fi++ {
			f := syntheticFrame(fi, objectsPerFrame)
			model.GroundFrame(f, toks)
		}
		d := time.Since(start)
		t.Add(fmt.Sprintf("%d", n), secs(d), fmt.Sprintf("%.2f", d.Seconds()*1000/float64(frames)))
	}
	t.Note("expected shape: rerank time grows ~linearly with objects; ms/keyframe roughly constant")
	return t, nil
}

// syntheticFrame builds a deterministic frame with n objects for the rerank
// sweep.
func syntheticFrame(idx, n int) *video.Frame {
	f := &video.Frame{VideoID: 1, Index: idx, Context: []string{"road"}}
	colors := []string{"red", "black", "white", "blue", "grey"}
	for i := 0; i < n; i++ {
		f.Objects = append(f.Objects, video.Object{
			Track: int64(idx*1000 + i),
			Class: "car",
			Attrs: []string{colors[(idx+i)%len(colors)]},
			Box: video.Box{
				X: 0.05 + 0.18*float64(i%5),
				Y: 0.2 + 0.15*float64(i/5),
				W: 0.12, H: 0.08,
			},
			Behaviors: []string{"driving"},
		})
	}
	return f
}
