// Concurrent clients: serve a query mix with QueryBatch — one batched
// stage-1 sweep, the stage-2 reranks fanned out across a client pool —
// while fresh footage keeps streaming in on another goroutine: the
// production shape of the concurrent execution engine. Parallel ingest
// encoding, the parallel stage-2 rerank and the client pool all share one
// Workers knob, and every answer is byte-identical to a serial run.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"

	"repro"
)

func main() {
	sys, err := lovo.Open(lovo.Options{Seed: 1, Workers: runtime.NumCPU()})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := lovo.LoadDataset("bellevue", lovo.DatasetConfig{Seed: 1, Scale: 0.1})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest the first half and open for business.
	half := (len(ds.Videos) + 1) / 2
	for i := 0; i < half; i++ {
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.BuildIndex(); err != nil {
		log.Fatal(err)
	}

	// The second half streams in behind the serving path.
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		for i := half; i < len(ds.Videos); i++ {
			if err := sys.Ingest(&ds.Videos[i]); err != nil {
				log.Fatal(err)
			}
		}
		if err := sys.BuildIndex(); err != nil {
			log.Fatal(err)
		}
	}()

	// Meanwhile, a burst of concurrent clients drains the benchmark
	// query mix.
	texts := make([]string, 0, 2*len(ds.Queries))
	for range 2 {
		for _, q := range ds.Queries {
			texts = append(texts, q.Text)
		}
	}
	results, err := sys.QueryBatch(texts, lovo.QueryOptions{}, runtime.NumCPU())
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		if i >= 4 {
			fmt.Printf("  ... and %d more\n", len(results)-i)
			break
		}
		top := "no hits"
		if len(res.Objects) > 0 {
			o := res.Objects[0]
			top = fmt.Sprintf("video %d frame %d score %.3f", o.VideoID, o.FrameIdx, o.Score)
		}
		fmt.Printf("  %-70s -> %s (total %v)\n", texts[i], top, res.Total().Round(1e6))
	}

	ingest.Wait()
	st := sys.Stats()
	fmt.Printf("\nserved %d queries while ingest grew the store to %d keyframes / %d vectors\n",
		len(results), st.Keyframes, st.Tokens)
}
