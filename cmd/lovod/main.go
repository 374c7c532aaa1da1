// Command lovod serves LOVO queries over HTTP: it ingests a benchmark
// dataset into a sharded scatter-gather engine (one core.System per shard)
// at boot (or restores a -save snapshot and skips ingest entirely), then
// answers natural-language object queries as JSON, fronted by an LRU
// result cache.
//
// Single-host mode hosts all shards in-process. Coordinator mode
// (-shard-addrs) instead dials one lovoshard worker per address and routes
// ingest, index builds, snapshots and both query stages over the shard RPC
// boundary — the workers hold the corpus, lovod holds the merge. Workers
// must be booted with the same -seed, -index and -segment-size; lovod
// verifies this at startup and fails fast — as it does when any worker is
// unreachable.
//
// Usage:
//
//	lovod -dataset bellevue -scale 0.1 -shards 4 -addr 127.0.0.1:8077
//	lovod -dataset bellevue -scale 0.1 -shards 4 -save lovo.snap   # first boot
//	lovod -dataset bellevue -scale 0.1 -shards 4 -load lovo.snap   # restart, no re-ingest
//	lovod -dataset bellevue -scale 0.1 -seed 7 \
//	    -shard-addrs 127.0.0.1:9101,127.0.0.1:9102                 # remote workers
//
//	curl localhost:8077/healthz
//	curl -X POST localhost:8077/query \
//	  -d '{"query": "A red car driving in the center of the road."}'
//	curl -X POST localhost:8077/query \
//	  -d '{"query": "A red car driving in the center of the road.",
//	       "options": {"fast_k": 40, "top_n": 5}}'
//	curl -X POST localhost:8077/query/batch \
//	  -d '{"queries": ["A truck driving on the road.", "A person walking on the street."]}'
//	curl localhost:8077/stats
//	curl localhost:8077/metrics
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/mat"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vectordb"
)

func main() {
	var (
		dataset    = flag.String("dataset", "bellevue", "dataset: cityscapes|bellevue|qvhighlights|beach|activitynet")
		scale      = flag.Float64("scale", 0.15, "dataset duration scale (1.0 = paper-sized)")
		seed       = flag.Uint64("seed", 7, "workload and system seed")
		shards     = flag.Int("shards", 4, "shard count (videos partition by ID modulo shards; ignored with -shard-addrs)")
		index      = flag.String("index", "imi", "vector index: imi|ivfpq|hnsw|flat")
		cache      = flag.Int("cache", 512, "query-result cache capacity in entries (0 disables; default from the cachesweep bench)")
		addr       = flag.String("addr", ":8077", "listen address")
		workers    = flag.Int("workers", 0, "per-shard worker pool (0 = NumCPU)")
		saveFile   = flag.String("save", "", "after ingest and indexing, write an engine snapshot to this file")
		loadFile   = flag.String("load", "", "restore a snapshot written by -save instead of re-ingesting (boot with the saver's -seed/-index/-shards)")
		shardAddrs = flag.String("shard-addrs", "", "comma-separated lovoshard worker addresses; enables coordinator mode (one remote shard per address)")
		connectTO  = flag.Duration("connect-timeout", 3*time.Second, "per-worker dial timeout for -shard-addrs (boot fails fast on an unreachable worker)")
		rpcTimeout = flag.Duration("rpc-timeout", 30*time.Second, "per-call deadline for shard RPCs")
		debugAddr  = flag.String("debug-addr", "", "optional second listen address for the debug tier (/debug/queries, /debug/pprof/*); keep it off the public port")
		segSize    = flag.Int("segment-size", 0, "seal threshold: 0 = batch (never seals by size; each index build rebuilds one segment, later ingest is exact-scanned until the next); N > 0 = continuous ingest sealing every N vectors; must match the workers'")
	)
	flag.Parse()

	if err := mat.KernelTierEnvError(); err != nil {
		fatal(fmt.Errorf("LOVO_KERNELS: %w", err))
	}
	log.Printf("kernels: %s tier active (host supports: %s)",
		mat.KernelTier(), strings.Join(mat.KernelTiers(), " "))

	kind, err := vectordb.ParseKind(*index)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{Seed: *seed, Index: kind, Workers: *workers, SegmentSize: *segSize}

	var eng *shard.Engine
	if *shardAddrs != "" {
		eng, err = connectWorkers(*shardAddrs, cfg, *connectTO, *rpcTimeout)
	} else {
		eng, err = shard.New(*shards, cfg)
	}
	if err != nil {
		fatal(err)
	}
	if *loadFile != "" {
		// The whole point of -load is skipping the corpus work: don't
		// even generate the dataset, just restore and serve.
		f, err := os.Open(*loadFile)
		if err != nil {
			fatal(err)
		}
		err = eng.LoadSnapshot(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		log.Printf("restored snapshot %s into %d shards (skipping ingest of %s)",
			*loadFile, eng.Shards(), *dataset)
	} else {
		ds, err := datasets.ByName(*dataset, datasets.Config{Seed: *seed, Scale: *scale})
		if err != nil {
			fatal(err)
		}
		log.Printf("ingesting %s across %d shards: %d videos, %d frames, %.0f s of footage",
			ds.Name, eng.Shards(), len(ds.Videos), ds.Frames(), ds.Duration())
		if err := eng.IngestDataset(ds); err != nil {
			fatal(err)
		}
		if err := eng.BuildIndex(); err != nil {
			fatal(err)
		}
		if *saveFile != "" {
			if err := writeSnapshot(eng, *saveFile); err != nil {
				fatal(err)
			}
			log.Printf("snapshot written to %s", *saveFile)
		}
	}
	status := eng.Status()
	st := status.Ingest
	log.Printf("ready: %d keyframes, %d indexed patch vectors (aggregate shard-time: processing %s, indexing %s)",
		st.Keyframes, st.Tokens, st.Processing.Round(1e6), st.Indexing.Round(1e6))
	if seg := status.Segments; seg.Growing > 0 {
		log.Printf("segmented: %d sealed / %d building segments, %d vectors growing",
			seg.Sealed, seg.Building, seg.GrowingLen)
	}

	srv := server.New(eng, server.Config{
		CacheSize: *cache,
		Shards:    eng.Shards(),
	})
	if *debugAddr != "" {
		dh := newHTTPServer(*debugAddr, srv.DebugHandler())
		go func() {
			if err := dh.ListenAndServe(); err != nil {
				fatal(fmt.Errorf("debug listener: %w", err))
			}
		}()
		log.Printf("debug tier on %s (GET /debug/queries, /debug/pprof/)", *debugAddr)
	}
	log.Printf("serving on %s (POST /query, /query/batch, /ingest; GET /stats /healthz /metrics /debug/queries)", *addr)
	if err := newHTTPServer(*addr, srv).ListenAndServe(); err != nil {
		fatal(err)
	}
}

// newHTTPServer bounds how long a client may hold a connection without
// progress, so one that dribbles its headers or idles on keep-alive cannot
// pin a connection and a goroutine forever. ReadTimeout covers a 64 MiB
// /ingest body on a slow link. WriteTimeout stays 0: a 256-query
// /query/batch with rerank has no useful upper bound.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// connectWorkers builds a coordinator engine over one remote shard per
// worker address: every worker is dialed and health-checked up front (an
// unreachable host fails the boot with its address in the error instead of
// hanging until the first query), and every worker's resolved configuration
// is verified against the coordinator's.
func connectWorkers(addrList string, cfg core.Config, dialTO, rpcTO time.Duration) (*shard.Engine, error) {
	addrs := strings.Split(addrList, ",")
	clients, err := remote.Connect(addrs, remote.ClientOptions{
		DialTimeout: dialTO,
		Timeout:     rpcTO,
	})
	if err != nil {
		return nil, err
	}
	if err := remote.VerifyConfig(clients, remote.Summarize(cfg.Resolved(), 0)); err != nil {
		for _, c := range clients {
			c.Close()
		}
		return nil, err
	}
	backends := make([]remote.ShardBackend, len(clients))
	for i, c := range clients {
		backends[i] = c
		log.Printf("shard %d: remote worker %s", i, c.Addr())
	}
	return shard.NewWithBackends(backends, cfg)
}

// writeSnapshot persists the engine to path, fsync-free but close-checked.
func writeSnapshot(eng *shard.Engine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.SaveSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lovod:", err)
	os.Exit(1)
}
