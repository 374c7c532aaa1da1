// Command lovodebug prints a labelled ranking for one LOVO query; a
// development aid for inspecting retrieval quality.
package main

import (
	"flag"
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/query"
)

func main() {
	dsName := flag.String("dataset", "beach", "dataset")
	qText := flag.String("query", "A green bus driving on the road.", "query")
	scale := flag.Float64("scale", 0.06, "scale")
	exhaustive := flag.Bool("exhaustive", false, "disable ANNS")
	norerank := flag.Bool("norerank", false, "disable rerank")
	maxout := flag.Int("maxout", 25, "max results printed")
	flag.Parse()

	ds, err := datasets.ByName(*dsName, datasets.Config{Seed: 7, Scale: *scale})
	if err != nil {
		panic(err)
	}
	p := query.Parse(*qText)
	var terms []string
	for _, t := range p.Terms {
		terms = append(terms, t.Name)
	}
	gt := datasets.GroundTruth(ds, terms)
	fmt.Printf("query terms: %v\nGT instances: %d, depth %d\n", terms, len(gt), metrics.Depth(gt))

	lovo := bench.NewLOVO(7)
	lovo.NoANNS = *exhaustive
	lovo.NoRerank = *norerank
	if _, err := lovo.Prepare(ds); err != nil {
		panic(err)
	}
	// Report GT instance coverage by keyframes.
	for gi, inst := range gt {
		frames := make([]int, 0, len(inst.Boxes))
		for fi := range inst.Boxes {
			frames = append(frames, fi)
		}
		sort.Ints(frames)
		covered := 0
		for _, fi := range frames {
			if _, ok := lovo.System().Keyframe(inst.VideoID, fi); ok {
				covered++
			}
		}
		fmt.Printf("GT#%d v%d track %d: %d query-frames %v, %d on keyframes\n", gi, inst.VideoID, inst.Track, len(frames), frames, covered)
	}
	res, _, err := lovo.Query(*qText, metrics.Depth(gt))
	if err != nil {
		panic(err)
	}
	last := lovo.LastResult()
	fmt.Printf("candidate frames: %d, fast=%v rerank=%v\n", last.CandidateFrames, last.FastSearch, last.Rerank)
	fmt.Printf("collection entities: %d\n", lovo.System().Entities())
	labels := metrics.Match(res, gt, metrics.DefaultIoU)
	fmt.Printf("AP = %.3f, results = %d\n", metrics.AveragePrecision(res, gt, metrics.DefaultIoU), len(res))
	for i, r := range res {
		if i >= *maxout {
			break
		}
		lab := "FP"
		if labels[i] >= 0 {
			lab = fmt.Sprintf("TP#%d", labels[i])
		} else if labels[i] == metrics.LabelDup {
			lab = "dup"
		}
		// identify the object under the box
		var under string
		for vi := range ds.Videos {
			if ds.Videos[vi].ID != r.VideoID {
				continue
			}
			f := &ds.Videos[vi].Frames[r.FrameIdx]
			bi, bIoU := -1, 0.0
			for oi := range f.Objects {
				if iou := f.Objects[oi].Box.IoU(r.Box); iou > bIoU {
					bi, bIoU = oi, iou
				}
			}
			if bi >= 0 {
				under = fmt.Sprintf("%s %v iou=%.2f", f.Objects[bi].Class, f.Objects[bi].Attrs, bIoU)
			}
		}
		fmt.Printf("%2d. v%d f%-4d score=%.4f  %-5s %s\n", i+1, r.VideoID, r.FrameIdx, r.Score, lab, under)
	}
}
