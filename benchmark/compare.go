package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// -compare implements the rule of the choosing-metrics guide, section 8, for
// two sets of runs (parent, change) of the same benchmark: one row per
// (end-to-end metric, workload) with both medians and quartiles, the pair
// wins and a verdict.

// Verdicts of one (metric, workload) row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// row is one compared (metric, workload) pairing.
type row struct {
	Workload, Metric string
	// A is the parent's sample, B the change's: quartiles and median.
	A, B [3]float64
	// Wins counts the pairs the change won, Pairs the pairs compared (run
	// i of the parent against run i of the change; ties count for neither).
	Wins, Pairs int
	Verdict     string
}

// judge compares one metric's parent runs a with the change's runs b.
//
//   - unresolved: the parent's own inter-quartile spread exceeds the bound,
//     so no difference within the bound can be told from noise;
//   - regressed: the change's median is worse than the parent's by more than
//     the bound;
//   - improved: the change wins at least nine tenths of the pairs and the
//     medians differ by more than the parent's inter-quartile distance;
//   - unchanged otherwise.
func judge(m Metric, a, b []float64) row {
	r := row{Metric: m.Name}
	r.A[0], r.A[1], r.A[2] = quartiles(a)
	r.B[0], r.B[1], r.B[2] = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	r.Pairs = min(len(a), len(b))
	for i := 0; i < r.Pairs; i++ {
		if better(b[i], a[i]) {
			r.Wins++
		}
	}
	medA, medB, iqrA := r.A[1], r.B[1], r.A[2]-r.A[0]
	scale := max(medA, -medA)
	switch {
	case iqrA > m.Bound*scale:
		r.Verdict = verdictUnresolved
	case better(medA, medB) && max(medA-medB, medB-medA) > m.Bound*scale:
		r.Verdict = verdictRegressed
	case better(medB, medA) && 10*r.Wins >= 9*r.Pairs && max(medA-medB, medB-medA) > iqrA:
		r.Verdict = verdictImproved
	default:
		r.Verdict = verdictUnchanged
	}
	return r
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// series collects a report's values of one end-to-end metric on one workload,
// in run order.
func (rep *Report) series(workload, metric string) []float64 {
	var out []float64
	for _, run := range rep.Runs {
		if v, ok := run.EndToEnd[metric]; ok && run.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

func (rep *Report) failed() int {
	n := 0
	for _, run := range rep.Runs {
		n += run.Failed
	}
	return n
}

// compareReports judges every (end-to-end metric, workload) pairing both
// reports cover with at least two runs each.
func compareReports(parent, change *Report) []row {
	var rows []row
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			a, b := parent.series(w.Name, m.Name), change.series(w.Name, m.Name)
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			r := judge(m, a, b)
			r.Workload = w.Name
			rows = append(rows, r)
		}
	}
	return rows
}

// compareFiles prints the comparison and returns the exit code: 1 when any
// row regressed or the change failed more operations than the parent.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	var reports [2]*Report
	for i, path := range []string{parentPath, changePath} {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintf(stderr, "lovogate: %v\n", err)
			return 2
		}
		reports[i] = rep
	}
	return printComparison(reports[0], reports[1], stdout)
}

func printComparison(parent, change *Report, stdout io.Writer) int {
	rows := compareReports(parent, change)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1/median/q3\tchange q1/median/q3\twins\tverdict")
	counts := make(map[string]int)
	for _, r := range rows {
		counts[r.Verdict]++
		fmt.Fprintf(tw, "%s\t%s\t%.4g / %.4g / %.4g\t%.4g / %.4g / %.4g\t%d/%d\t%s\n",
			r.Workload, r.Metric, r.A[0], r.A[1], r.A[2], r.B[0], r.B[1], r.B[2], r.Wins, r.Pairs, r.Verdict)
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d rows: %d improved, %d unchanged, %d regressed, %d unresolved; failed operations: parent %d, change %d\n",
		len(rows), counts[verdictImproved], counts[verdictUnchanged], counts[verdictRegressed], counts[verdictUnresolved],
		parent.failed(), change.failed())
	if counts[verdictRegressed] > 0 || change.failed() > parent.failed() {
		return 1
	}
	return 0
}
