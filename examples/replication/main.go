// Replication demo: every shard runs as a replica group, concurrent
// clients drive query traffic, and one replica is killed mid-run. Traffic
// keeps answering — byte-identically, because replicas are built from
// equal seeds and equal ingest fan-out — and the per-replica read counters
// show the router spreading load, then draining the dead replica.
package main

import (
	"fmt"
	"log"
	"reflect"
	"sync"

	"repro"
)

func main() {
	// Two shards, two replicas each: four full LOVO systems behind one
	// scatter-gather engine.
	sys, err := lovo.Open(lovo.Options{Seed: 1, Shards: 2, Replicas: 2})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := lovo.LoadDataset("qvhighlights", lovo.DatasetConfig{Seed: 1, Scale: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingesting %s into 2 shards x 2 replicas: %d videos, %d frames\n",
		ds.Name, len(ds.Videos), ds.Frames())
	if err := sys.IngestDataset(ds); err != nil {
		log.Fatal(err)
	}
	if err := sys.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	eng := sys.Engine()

	// Reference answers, computed before any failure.
	want := make([]*lovo.Result, len(ds.Queries))
	for i, q := range ds.Queries {
		if want[i], err = sys.Query(q.Text, lovo.QueryOptions{Workers: 1}); err != nil {
			log.Fatal(err)
		}
	}

	// Concurrent clients drive two rounds of the benchmark mix; between
	// the rounds, replica 0 of shard 0 dies. No client notices: the
	// router marks it failed out of the rotation and the surviving
	// replica serves the same bytes.
	const clients = 4
	divergences := 0
	var mu sync.Mutex
	round := func(label string) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range ds.Queries {
					qi := (c + i) % len(ds.Queries)
					res, err := sys.Query(ds.Queries[qi].Text, lovo.QueryOptions{Workers: 1})
					if err != nil {
						log.Fatalf("%s: query %s: %v", label, ds.Queries[qi].ID, err)
					}
					if !reflect.DeepEqual(res.Objects, want[qi].Objects) {
						mu.Lock()
						divergences++
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		fmt.Printf("%s: %d queries answered\n", label, clients*len(ds.Queries))
	}

	round("round 1 (all replicas healthy)")
	fmt.Println("\n*** killing shard 0, replica 0 mid-traffic ***")
	eng.FailReplica(0, 0)
	round("round 2 (one replica down)")

	fmt.Printf("\nanswers identical to the healthy baseline: %t (%d divergences)\n\n",
		divergences == 0, divergences)
	fmt.Println("per-replica state after the drill:")
	for gi, group := range eng.Status().ReplicaGroups {
		for ri, st := range group {
			fmt.Printf("  shard %d replica %d: healthy=%-5t reads=%d\n", gi, ri, st.Healthy, st.Reads)
		}
	}
}
