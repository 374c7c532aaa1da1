// Package benchmark is the repo's performance gate: a load generator and
// layer profiler that drives the real serving stack (HTTP tier, coordinator
// engine, remote workers over loopback RPC) through four named workloads,
// checks the answers, and prints end-to-end or per-layer metrics by name.
// README.md documents every workload, metric and flag.
package benchmark

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// Report is what -out writes and -compare reads: every run of one invocation.
type Report struct {
	Runs []*Result `json:"runs"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// Main is the command: it parses args, runs the selected workloads (or a
// comparison) and returns the process exit code. The result lines go to
// stdout, everything else to stderr.
func Main(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lovogate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: interactive|scan_batch|hot_cache|live_ingest|all")
		seed     = fs.Uint64("seed", 1, "seed of the corpus, the query pool and every schedule")
		seconds  = fs.Int("seconds", 10, "length of the timed window in seconds (BENCHMARK.json fixes the gate's value)")
		window   = fs.Duration("window", 0, "length of the timed window as a duration; overrides -seconds")
		trace    = fs.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
		runs     = fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out      = fs.String("out", "", "write every run's metrics to this JSON file (the input of -compare)")
		traceDir = fs.String("tracedir", "out", "directory for trace-<workload>.json after a traced run")
		compare  = fs.Bool("compare", false, "compare two -out files: lovogate -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "lovogate: -compare takes two report files: parent.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "lovogate: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *window == 0 {
		*window = time.Duration(*seconds) * time.Second
	}
	var names []string
	if *workload == "all" {
		for _, w := range Workloads {
			names = append(names, w.Name)
		}
	} else {
		names = []string{*workload}
	}

	var report Report
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			res, err := Run(ctx, RunConfig{
				Workload: name, Seed: *seed + uint64(i), Window: *window,
				Trace: *trace != 0, TraceDir: *traceDir, Log: stderr,
			})
			if err != nil {
				fmt.Fprintf(stderr, "lovogate: %s: %v\n", name, err)
				return 1
			}
			report.Runs = append(report.Runs, res)
			line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
			if res.Trace {
				line.Metrics = res.PerLayer
			}
			if err := json.NewEncoder(stdout).Encode(line); err != nil {
				fmt.Fprintf(stderr, "lovogate: %v\n", err)
				return 1
			}
			for _, why := range res.Reasons {
				fmt.Fprintf(stderr, "lovogate: %s: failed: %s\n", name, why)
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lovogate: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return exitCode(report.Runs)
}

// exitCode is the command's verdict on its runs: non-zero when any run had a
// failed operation or a wrong answer.
func exitCode(runs []*Result) int {
	for _, res := range runs {
		if !res.Correct {
			return 1
		}
	}
	return 0
}
