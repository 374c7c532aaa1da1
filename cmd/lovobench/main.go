// Command lovobench regenerates the paper's tables and figures against the
// synthetic workloads.
//
// Usage:
//
//	lovobench                      # run every experiment
//	lovobench -experiment fig6     # run one experiment
//	lovobench -list                # list experiment names
//	lovobench -scale 0.5 -seed 9   # bigger workloads, different seed
//	lovobench -quick               # smoke-test sweeps
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (default: all)")
		list       = flag.Bool("list", false, "list experiment names and exit")
		seed       = flag.Uint64("seed", 7, "workload seed")
		scale      = flag.Float64("scale", 0, "dataset duration scale (0 = default)")
		quick      = flag.Bool("quick", false, "shrink sweeps for smoke runs")
		jsonDir    = flag.String("json", "", "also write each table as a BENCH_<id>.json snapshot into this directory")
	)
	flag.Parse()

	if *list {
		for _, n := range bench.Experiments() {
			fmt.Println(n)
		}
		return
	}
	opts := bench.Options{Seed: *seed, Scale: *scale, Quick: *quick}
	run := func(name string) error {
		start := time.Now()
		t, err := bench.Run(name, opts)
		if err != nil {
			return err
		}
		fmt.Println(t)
		if *jsonDir != "" {
			path, err := t.WriteJSON(*jsonDir)
			if err != nil {
				return err
			}
			fmt.Printf("(snapshot written to %s)\n", path)
		}
		fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if *experiment != "" {
		if err := run(*experiment); err != nil {
			fmt.Fprintln(os.Stderr, "lovobench:", err)
			os.Exit(1)
		}
		return
	}
	for _, name := range bench.Experiments() {
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "lovobench:", err)
			os.Exit(1)
		}
	}
}
