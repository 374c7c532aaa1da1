// Streaming: the paper's Section IX future work, live — footage arrives
// video by video; each batch is sealed into its own indexed segment, so the
// system answers queries continuously without ever rebuilding the index
// over old footage.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	sys, err := lovo.Open(lovo.Options{Seed: 11, SegmentSize: 300})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := lovo.LoadDataset("qvhighlights", lovo.DatasetConfig{Seed: 11, Scale: 0.15})
	if err != nil {
		log.Fatal(err)
	}

	const q = "A white dog inside a car."
	for i := range ds.Videos {
		// New footage arrives...
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			log.Fatal(err)
		}
		// ...and is sealed into its own segment (no full rebuild).
		if err := sys.BuildIndex(); err != nil {
			log.Fatal(err)
		}
		// The system stays queryable throughout.
		if (i+1)%5 == 0 {
			res, err := sys.Query(q, lovo.QueryOptions{})
			if err != nil {
				log.Fatal(err)
			}
			st := sys.Core().Segmented().SegmentStats()
			fmt.Printf("after %2d videos: %d sealed segments (+%d growing vectors), query %q -> %d objects in %v\n",
				i+1, st.Sealed+st.Building, st.GrowingLen, q, len(res.Objects), res.Total().Round(1e6))
		}
	}
	fmt.Println("\neach seal indexed only the newest segment; earlier segments were never rebuilt.")
}
