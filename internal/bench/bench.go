// Package bench regenerates every table and figure of the paper's
// evaluation section against the synthetic workloads. Each experiment
// returns a Table with the same rows/series the paper reports; absolute
// numbers differ from the authors' GPU testbed, but the shapes — who wins,
// by roughly what factor, where the crossovers fall — are the reproduction
// targets (see EXPERIMENTS.md for the paper-vs-measured record).
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives workload generation and all systems.
	Seed uint64
	// Scale multiplies dataset durations. The default 0.15 keeps a full
	// regeneration tractable on a laptop; raise toward 1.0 for
	// paper-scale workloads.
	Scale float64
	// Quick further shrinks sweeps for use inside unit tests and smoke
	// benchmarks.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Scale == 0 {
		o.Scale = 0.15
		if o.Quick {
			o.Scale = 0.06
		}
	}
	return o
}

// Table is one experiment's output.
type Table struct {
	// ID is the paper artifact ("fig6", "table4").
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the cells.
	Rows [][]string
	// Notes carries free-form observations (speedup factors, shape
	// checks).
	Notes []string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// secs formats a duration as seconds with three decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// ms formats a duration as milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

// f3 formats a float with three decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// rootCtx is the context every experiment queries under.
func rootCtx() context.Context {
	//lovo:ctx-ok table runners are context roots: nothing above an experiment carries a trace
	return context.Background()
}

// runner produces one experiment table.
type runner func(Options) (*Table, error)

var registry = map[string]runner{}

func register(name string, r runner) { registry[name] = r }

// Experiments lists registered experiment names sorted.
func Experiments() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by name.
func Run(name string, o Options) (*Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments())
	}
	return r(o.withDefaults())
}
