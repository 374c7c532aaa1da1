// Command lovo is the interactive front-end to the LOVO system: it
// generates (or loads) a benchmark dataset, runs one-time Video Summary and
// indexing, then answers object queries.
//
// Usage:
//
//	lovo -dataset bellevue -query "A red car driving in the center of the road."
//	lovo -dataset beach -scale 0.3 -index hnsw -query "A truck driving on the road." -topn 5
//	lovo -dataset qvhighlights -stats
//	lovo -dataset bellevue -bench          # run the dataset's Table II queries
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro"
	"repro/internal/mat"
)

func main() {
	var (
		dataset  = flag.String("dataset", "bellevue", "dataset: cityscapes|bellevue|qvhighlights|beach|activitynet")
		scale    = flag.Float64("scale", 0.15, "dataset duration scale (1.0 = paper-sized)")
		seed     = flag.Uint64("seed", 7, "workload and system seed")
		index    = flag.String("index", "imi", "vector index: imi|ivfpq|hnsw|flat")
		keyfr    = flag.String("keyframes", "mvmed", "keyframe strategy: mvmed|uniform|all")
		queryStr = flag.String("query", "", "natural-language object query")
		topn     = flag.Int("topn", 10, "frames to return")
		noRerank = flag.Bool("no-rerank", false, "disable cross-modality rerank")
		stats    = flag.Bool("stats", false, "print ingest statistics and exit")
		benchAll = flag.Bool("bench", false, "run the dataset's benchmark queries")
		shards   = flag.Int("shards", 0, "partition across N scatter-gather shards (0/1 = single system)")
		saveFile = flag.String("save", "", "after ingest and indexing, write a system snapshot to this file")
		loadFile = flag.String("load", "", "restore a snapshot written by -save instead of re-ingesting (open with the saver's -seed/-index/-shards)")
	)
	flag.Parse()

	if err := mat.KernelTierEnvError(); err != nil {
		fatal(fmt.Errorf("LOVO_KERNELS: %w", err))
	}

	sys, err := lovo.Open(lovo.Options{Seed: *seed, Index: *index, Keyframes: *keyfr, TopN: *topn, Shards: *shards})
	if err != nil {
		fatal(err)
	}
	ds, err := lovo.LoadDataset(*dataset, lovo.DatasetConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		fatal(err)
	}
	if *loadFile != "" {
		f, err := os.Open(*loadFile)
		if err != nil {
			fatal(err)
		}
		err = sys.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("restored snapshot %s (skipping ingest of %s)\n", *loadFile, ds.Name)
	} else {
		fmt.Printf("ingesting %s: %d videos, %d frames, %.0f s of footage...\n",
			ds.Name, len(ds.Videos), ds.Frames(), ds.Duration())
		if err := sys.IngestDataset(ds); err != nil {
			fatal(err)
		}
		if err := sys.BuildIndex(); err != nil {
			fatal(err)
		}
		if *saveFile != "" {
			f, err := os.Create(*saveFile)
			if err != nil {
				fatal(err)
			}
			err = sys.Save(f)
			if err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("snapshot written to %s\n", *saveFile)
		}
	}
	st := sys.Stats()
	fmt.Printf("summary: %d keyframes, %d indexed patch vectors, processing %s, indexing %s (%s kernels)\n\n",
		st.Keyframes, st.Tokens, st.Processing.Round(1e6), st.Indexing.Round(1e6), mat.KernelTier())

	if *stats {
		return
	}

	runQuery := func(text string) {
		res, err := sys.Query(text, lovo.QueryOptions{DisableRerank: *noRerank})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query: %q\n", text)
		fmt.Printf("  fast search %s, rerank %s, %d candidate frames\n",
			res.FastSearch.Round(1e3), res.Rerank.Round(1e6), res.CandidateFrames)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  rank\tvideo\tframe\tscore\tbox")
		for i, o := range res.Objects {
			if i >= *topn {
				break
			}
			fmt.Fprintf(w, "  %d\t%d\t%d\t%.3f\t(%.2f,%.2f %.2fx%.2f)\n",
				i+1, o.VideoID, o.FrameIdx, o.Score, o.Box.X, o.Box.Y, o.Box.W, o.Box.H)
		}
		_ = w.Flush()
		fmt.Println()
	}

	switch {
	case *benchAll:
		for _, q := range ds.Queries {
			fmt.Printf("[%s] ", q.ID)
			runQuery(q.Text)
		}
	case *queryStr != "":
		runQuery(*queryStr)
	default:
		fmt.Println("no -query given; running the dataset's first benchmark query")
		runQuery(ds.Queries[0].Text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lovo:", err)
	os.Exit(1)
}
