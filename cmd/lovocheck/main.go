// Command lovocheck runs the repo's invariant analyzers (internal/lint)
// over Go packages: the determinism, codec-safety, kernel-discipline and
// ctx-threading contracts, enforced at the source level.
//
// Usage (what CI runs):
//
//	lovocheck ./...
//
// resolves the package patterns with `go list`, analyzes every non-test
// file, prints findings as file:line:col: [analyzer] message, and exits 2
// if there were any.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	debug := flag.Bool("debug", false, "print swallowed type-resolution errors")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(run(args, *debug))
}

// listedPackage is the slice of `go list -json` output the driver needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	GoFiles    []string
}

func run(patterns []string, debug bool) int {
	cmd := exec.Command("go", append([]string{"list", "-json=Dir,ImportPath,Standard,GoFiles", "--"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "lovocheck: go list: %v\n", err)
		return 1
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	exit := 0
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "lovocheck: decoding go list output: %v\n", err)
			return 1
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := lint.LoadFiles(p.ImportPath, files)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lovocheck: %s: %v\n", p.ImportPath, err)
			exit = 1
			continue
		}
		if debug {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "lovocheck: debug: %s: %v\n", p.ImportPath, terr)
			}
		}
		for _, d := range lint.RunAll(pkg) {
			fmt.Printf("%s: [%s] %s\n", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
			exit = 2
		}
	}
	return exit
}
