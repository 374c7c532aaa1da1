package remote_test

// Streaming conformance: the acceptance pin for continuous ingest. A
// sharded engine running entirely over the RPC transport in
// streaming mode — videos arriving one at a time, background seals and
// compactions in flight — must answer exact searches byte-identically to a
// monolithic batch core.System holding the same corpus. Checked BEFORE any
// maintenance has run (first videos still in the growing segment), DURING
// (mid-stream, seals/compactions racing the queries), and AFTER a full
// quiesce. Exact search scans growing, building and sealed segments
// uniformly, so segment layout must never leak into an answer.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/vectordb"
)

func TestStreamingRemoteMatchesBatchMonolith(t *testing.T) {
	const seed = 7
	// QVHighlights generates 15 distinct clips so both shards own videos
	// and the tiny seal threshold forces several seals plus compactions.
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	streamCfg := core.Config{Seed: seed, SegmentSize: 150}
	eng, _ := remoteEngine(t, 2, streamCfg, remote.ClientOptions{})

	queries := ds.Queries
	if testing.Short() {
		queries = queries[:2]
	}
	// batchReference builds a fresh monolithic batch system over exactly
	// the first n videos — the ground truth for each checkpoint.
	batchReference := func(n int) *core.System {
		sys, err := core.New(core.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := sys.Ingest(&ds.Videos[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	checkpoints := []struct {
		name string
		upto int
	}{
		{"before-seals", 1}, // one video: still inside the growing segments
		{"during-maintenance", 2 * len(ds.Videos) / 3},
		{"after-quiesce", len(ds.Videos)},
	}
	ingested := 0
	for i, cp := range checkpoints {
		t.Run(cp.name, func(t *testing.T) {
			for ; ingested < cp.upto; ingested++ {
				if err := eng.Ingest(&ds.Videos[ingested]); err != nil {
					t.Fatal(err)
				}
			}
			if i == len(checkpoints)-1 {
				// The last checkpoint additionally waits for background
				// maintenance to drain, pinning the post-quiesce state.
				if err := eng.BuildIndex(); err != nil {
					t.Fatal(err)
				}
			}
			ref := batchReference(cp.upto)
			if got, want := eng.Entities(), ref.Entities(); got != want {
				t.Fatalf("streaming entities = %d, batch = %d", got, want)
			}
			for _, q := range queries {
				for _, opts := range []core.QueryOptions{
					{Exhaustive: true},
					{Exhaustive: true, FastK: 40, TopN: 5},
				} {
					want, err := core.Query(context.Background(), ref, q.Text, opts)
					if err != nil {
						t.Fatalf("%s batch: %v", q.ID, err)
					}
					got, err := core.Query(context.Background(), eng, q.Text, opts)
					if err != nil {
						t.Fatalf("%s streaming: %v", q.ID, err)
					}
					if !reflect.DeepEqual(got.Objects, want.Objects) {
						t.Errorf("%s opts %+v: streaming remote diverges from batch monolith\n got: %+v\nwant: %+v",
							q.ID, opts, got.Objects, want.Objects)
					}
				}
			}
		})
	}

	// The segment breakdown travels the RPC boundary: one growing segment
	// per shard, and the tiny
	// threshold must have forced seals on both shards.
	st := eng.Status().Segments
	if st.Growing != 2 {
		t.Errorf("growing segments = %d, want one per shard (2)", st.Growing)
	}
	if st.Seals == 0 || st.SealedVectors == 0 {
		t.Errorf("threshold %d must force seals, got %+v", streamCfg.SegmentSize, st)
	}
}

// TestBatchRemoteReportsNoSegments pins the negative: a batch fleet's
// status carries zero segment stats and the engine folds it to the same.
func TestBatchRemoteReportsNoSegments(t *testing.T) {
	eng, _ := remoteEngine(t, 2, core.Config{Seed: 7}, remote.ClientOptions{})
	if st := eng.Status().Segments; st != (vectordb.SegmentStats{}) {
		t.Fatalf("batch remote engine must not report segment stats, got %+v", st)
	}
}

// TestDuplicateIngestSentinelSurvivesWire: a duplicate live ingest on a
// remote worker must still satisfy errors.Is(err, vectordb.ErrDuplicate)
// on the coordinator — the serving tier maps it to 409 Conflict, which
// only works if the sentinel survives the RPC boundary.
func TestDuplicateIngestSentinelSurvivesWire(t *testing.T) {
	ds := datasets.QVHighlights(datasets.Config{Seed: 7, Scale: 0.04})
	eng, _ := remoteEngine(t, 2, core.Config{Seed: 7, SegmentSize: 4096}, remote.ClientOptions{})
	if err := eng.Ingest(&ds.Videos[0]); err != nil {
		t.Fatal(err)
	}
	err := eng.Ingest(&ds.Videos[0])
	if err == nil {
		t.Fatal("duplicate ingest must error")
	}
	if !errors.Is(err, vectordb.ErrDuplicate) {
		t.Fatalf("duplicate ingest error lost its sentinel over the wire: %v", err)
	}
}
