package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/shard"
	"repro/internal/video"
)

func init() {
	register("streamingserve", streamingServeExperiment)
}

// streamingServeExperiment measures the live-ingest serving path: query
// latency percentiles at steady state versus under sustained concurrent
// ingest, on a streaming (segmented) engine where seals and compactions
// run on the background maintenance goroutine — against a batch control
// where staying index-fresh means a synchronous full rebuild under the
// collection write lock. The acceptance bar is streaming p99 under ingest
// within 2x of steady state; the batch control shows what the same ingest
// rate costs when builds block the read path. On a single-core host the
// streaming ratio degrades toward CPU time-slicing with the embedding and
// build compute (there is no spare core for the maintenance goroutine) —
// the no-blocking property itself is pinned deterministically by the
// vectordb seal-concurrency regression tests, independent of core count.
func streamingServeExperiment(o Options) (*Table, error) {
	ds := datasets.QVHighlights(datasets.Config{Seed: o.Seed, Scale: o.Scale})

	const shards = 2
	// A small seal threshold so the sustained-ingest phase forces real
	// seals (and, when the phase runs long enough, compactions) instead of
	// only growing-segment appends.
	const sealThreshold = 64
	clients := core.ResolveWorkers(o.Workers)

	queriesPerRun := 64
	if o.Quick {
		queriesPerRun = 12
	}
	texts := make([]string, queriesPerRun)
	for i := range texts {
		texts[i] = ds.Queries[i%len(ds.Queries)].Text
	}

	// The live feed: short clip chunks at a paced arrival rate (a camera
	// pushing GOP-sized pieces), recycled from a second dataset under
	// fresh video IDs so every ingest is genuinely new corpus.
	const (
		arrivalGap  = 40 * time.Millisecond
		chunkFrames = 4
	)
	extra := datasets.Bellevue(datasets.Config{Seed: o.Seed + 1, Scale: 0.02})

	boot := func(cfg core.Config) (*shard.Engine, error) {
		eng, err := shard.NewReplicated(shards, 1, cfg)
		if err != nil {
			return nil, err
		}
		if err := eng.IngestDataset(ds); err != nil {
			return nil, err
		}
		if err := eng.BuildIndex(); err != nil {
			return nil, err
		}
		// Warm the term cache so the first client doesn't pay it alone.
		if _, err := eng.Query(texts[0], core.QueryOptions{Workers: 1}); err != nil {
			return nil, err
		}
		return eng, nil
	}

	// runPhase drives the query mix through a concurrent client pool and
	// returns sorted per-query latencies.
	runPhase := func(eng *shard.Engine) ([]time.Duration, time.Duration, error) {
		latencies := make([]time.Duration, len(texts))
		errs := make([]error, len(texts))
		start := time.Now()
		core.ParallelFor(len(texts), clients, func(i int) {
			qstart := time.Now()
			_, errs[i] = eng.Query(texts[i], core.QueryOptions{Workers: 1})
			latencies[i] = time.Since(qstart)
		})
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		return latencies, wall, nil
	}

	// feed streams chunks into ingest until stopped; ingest performs the
	// mode's freshness work (streaming: plain Ingest, maintenance is
	// background; batch control: Ingest plus synchronous full rebuild).
	feed := func(firstID int, ingest func(*video.Video) error) (stopFeed func() int64) {
		var (
			stop  atomic.Bool
			count atomic.Int64
			wg    sync.WaitGroup
		)
		nextID, off := firstID, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				src := extra.Videos[int(count.Load())%len(extra.Videos)]
				if off+chunkFrames > len(src.Frames) {
					off = 0
				}
				v := video.Video{ID: nextID, Name: src.Name, FPS: src.FPS,
					Frames: append([]video.Frame(nil), src.Frames[off:off+chunkFrames]...)}
				off += chunkFrames
				for i := range v.Frames {
					v.Frames[i].VideoID = nextID
					v.Frames[i].Index = i
				}
				if nextID++; nextID > core.MaxVideoID {
					return
				}
				if err := ingest(&v); err != nil {
					return
				}
				count.Add(1)
				time.Sleep(arrivalGap)
			}
		}()
		return func() int64 {
			stop.Store(true)
			wg.Wait()
			return count.Load()
		}
	}

	t := &Table{
		ID: "streamingserve",
		Title: fmt.Sprintf("Serving under sustained live ingest (%d shards, seal threshold %d, %d clients, GOMAXPROCS=%d)",
			shards, sealThreshold, clients, runtime.GOMAXPROCS(0)),
		Header: []string{"mode / phase", "queries", "wall", "qps", "p50", "p99", "p99 vs steady", "chunks ingested"},
	}
	addRow := func(label string, lat []time.Duration, wall time.Duration, steadyP99 time.Duration, chunks int64) float64 {
		p99 := percentile(lat, 0.99)
		ratio := 1.0
		if steadyP99 > 0 {
			ratio = float64(p99) / float64(steadyP99)
		}
		t.Add(label, fmt.Sprintf("%d", len(texts)), secs(wall),
			fmt.Sprintf("%.1f", float64(len(texts))/wall.Seconds()),
			ms(percentile(lat, 0.50)), ms(p99),
			fmt.Sprintf("%.2fx", ratio), fmt.Sprintf("%d", chunks))
		return ratio
	}

	// Streaming engine: background seals/compactions.
	eng, err := boot(core.Config{Seed: o.Seed, Streaming: true, SegmentSize: sealThreshold})
	if err != nil {
		return nil, err
	}
	steady, steadyWall, err := runPhase(eng)
	if err != nil {
		return nil, err
	}
	steadyP99 := percentile(steady, 0.99)
	addRow("streaming steady", steady, steadyWall, steadyP99, 0)

	segBefore := eng.Status().Segments
	stopFeed := feed(2000, eng.Ingest)
	under, underWall, err := runPhase(eng)
	chunks := stopFeed()
	if err != nil {
		return nil, err
	}
	ratio := addRow("streaming under ingest", under, underWall, steadyP99, chunks)
	segAfter := eng.Status().Segments

	// Batch control: the pre-streaming way to stay fresh — every chunk
	// pays a full synchronous rebuild that holds the collection write
	// lock, and queries feel it.
	engB, err := boot(core.Config{Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	steadyB, steadyBWall, err := runPhase(engB)
	if err != nil {
		return nil, err
	}
	steadyBP99 := percentile(steadyB, 0.99)
	addRow("batch steady", steadyB, steadyBWall, steadyBP99, 0)
	stopFeedB := feed(20000, func(v *video.Video) error {
		if err := engB.Ingest(v); err != nil {
			return err
		}
		return engB.BuildIndex()
	})
	underB, underBWall, err := runPhase(engB)
	chunksB := stopFeedB()
	if err != nil {
		return nil, err
	}
	ratioB := addRow("batch rebuild under ingest", underB, underBWall, steadyBP99, chunksB)

	t.Note("maintenance during streaming query phase: %d seals, %d compactions — all on the background goroutine",
		segAfter.Seals-segBefore.Seals, segAfter.Compactions-segBefore.Compactions)
	t.Note("acceptance bar: streaming p99 under sustained ingest <= 2.00x steady state on a multi-core host (measured %.2fx at GOMAXPROCS=%d); batch rebuild control measured %.2fx",
		ratio, runtime.GOMAXPROCS(0), ratioB)
	t.Note("expected shape: streaming holds p99 near steady state because seals index only the frozen segment off the write lock; the batch control degrades with corpus size because every chunk rebuilds everything under the lock")
	return t, nil
}
