// Command lovogate is the repo's performance gate (see ../../README.md):
//
//	bash benchmark/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
//	go run -C benchmark ./cmd/lovogate -workload all -runs 5 -out parent.json
//	go run -C benchmark ./cmd/lovogate -compare parent.json change.json
package main

import (
	"context"
	"os"
	"os/signal"

	"repro/benchmark"
)

func main() {
	// An interrupt cancels the run; the stack shuts its listeners down and
	// waits for its goroutines before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := benchmark.Main(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
