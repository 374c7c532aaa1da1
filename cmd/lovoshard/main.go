// Command lovoshard hosts one LOVO shard — one core.System — and serves the
// shard RPC protocol, so a lovod coordinator on another host can
// scatter-gather queries across a fleet of workers.
//
// A worker boots empty: the coordinator partitions the corpus by video ID
// and routes each video's ingest (and the index build, snapshot save/load,
// and both query stages) over the RPC boundary. Boot every worker and the
// coordinator with the same -seed, -index and -segment-size — encoders are
// seeded, so a mismatch would embed queries into a different space than the
// stored vectors; the coordinator verifies this at startup and refuses to
// serve on a mismatch.
//
// Usage:
//
//	lovoshard -addr 127.0.0.1:9101 -seed 7 -index imi
//	lovoshard -addr 127.0.0.1:9102 -seed 7 -index imi
//	lovod -dataset bellevue -scale 0.1 -seed 7 -index imi \
//	    -shard-addrs 127.0.0.1:9101,127.0.0.1:9102 -addr :8077
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/vectordb"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9101", "shard RPC listen address")
		seed    = flag.Uint64("seed", 7, "system seed (must match the coordinator's)")
		index   = flag.String("index", "imi", "vector index: imi|ivfpq|hnsw|flat (must match the coordinator's)")
		workers = flag.Int("workers", 0, "worker pool (0 = NumCPU)")
		kernels = flag.String("kernels", "", "pin the float32 scoring-kernel tier: auto|avx2|sse2|neon|purego (default: $LOVO_KERNELS, else widest supported; all tiers are bit-identical)")
		segSize = flag.Int("segment-size", 0, "seal threshold: 0 = batch (never seals by size; each index build rebuilds one segment, later ingest is exact-scanned until the next); N > 0 = continuous ingest sealing every N vectors; must match the coordinator's")
	)
	flag.Parse()

	if *kernels != "" {
		if _, err := mat.SetKernelTier(*kernels); err != nil {
			fatal(fmt.Errorf("-kernels: %w", err))
		}
	} else if err := mat.KernelTierEnvError(); err != nil {
		fatal(fmt.Errorf("LOVO_KERNELS: %w", err))
	}
	log.Printf("kernels: %s tier active (host supports: %s)",
		mat.KernelTier(), strings.Join(mat.KernelTiers(), " "))

	kind, err := vectordb.ParseKind(*index)
	if err != nil {
		fatal(err)
	}
	backend, err := shard.NewLocal(1, core.Config{Seed: *seed, Index: kind, Workers: *workers, SegmentSize: *segSize})
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := remote.NewServer(backend)
	srv.Logf = log.Printf
	store := "batch store"
	if *segSize > 0 {
		store = fmt.Sprintf("segmented store sealing every %d vectors", *segSize)
	}
	log.Printf("lovoshard: hosting 1 shard (%s index, seed %d, %s), RPC on %s",
		kind, *seed, store, l.Addr())
	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lovoshard:", err)
	os.Exit(1)
}
