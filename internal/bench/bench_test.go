package bench

import (
	"slices"
	"strings"
	"testing"
)

// quickOpts shrinks every sweep for fast unit runs.
var quickOpts = Options{Seed: 7, Quick: true, Scale: 0.05}

// TestExperimentsRegistered pins the exact set of experiments, so that
// none can be dropped from cmd/lovobench (and from the CI step that runs
// every one of them) without this test failing.
func TestExperimentsRegistered(t *testing.T) {
	want := []string{
		"cachesweep", "extra-nprobe", "extra-streaming",
		"fig10", "fig11a", "fig11b", "fig11c", "fig11d",
		"fig2", "fig6", "fig7", "fig8", "fig9",
		"table3", "table4", "table5", "table7",
	}
	if have := Experiments(); !slices.Equal(have, want) {
		t.Fatalf("experiments = %v, want %v", have, want)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", quickOpts); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tbl.Add("1", "2")
	tbl.Note("note %d", 7)
	out := tbl.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// The smoke tests below run each experiment at tiny scale and assert the
// structural and (where stable) directional properties the paper reports.

func TestFig2Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system comparison too slow for -short")
	}
	tbl, err := Run("fig2", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// QA-index must be unsupported beyond simple; vision-based supports
	// everything.
	var qa, vision []string
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "QA-index") {
			qa = row
		}
		if strings.HasPrefix(row[0], "Vision-based") {
			vision = row
		}
	}
	if qa[2] != "unsupported" || qa[3] != "unsupported" {
		t.Errorf("QA-index should be unsupported beyond simple: %v", qa)
	}
	if qa[1] == "unsupported" {
		t.Errorf("QA-index should answer simple queries: %v", qa)
	}
	for _, c := range vision[1:] {
		if c == "unsupported" {
			t.Errorf("vision-based must support all grades: %v", vision)
		}
	}
}

func TestFig6LOVOWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full baseline sweep too slow for -short")
	}
	tbl, err := Run("fig6", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "best-or-tied") {
			found = true
		}
	}
	if !found {
		t.Fatal("missing win-rate note")
	}
}

func TestFig8SearchOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline latency sweep too slow for -short")
	}
	tbl, err := Run("fig8", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig9Runs(t *testing.T) {
	tbl, err := Run("fig9", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 || len(tbl.Header) != 4 {
		t.Fatalf("shape: %d rows, %d cols", len(tbl.Rows), len(tbl.Header))
	}
}

func TestFig11bStorageGrows(t *testing.T) {
	tbl, err := Run("fig11b", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatal("need at least two sizes")
	}
}

func TestTable4AblationStructure(t *testing.T) {
	tbl, err := Run("table4", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// 4 variants × 3 metric rows.
	if len(tbl.Rows) != 12 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The w/o-rerank variant reports no rerank time.
	for i, row := range tbl.Rows {
		if row[0] == "w/o Rerank" {
			rerankRow := tbl.Rows[i+2]
			if rerankRow[2] != "-" {
				t.Fatalf("w/o Rerank must have no rerank time: %v", rerankRow)
			}
		}
	}
}

func TestTable5Structure(t *testing.T) {
	tbl, err := Run("table5", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 { // 3 variants × 3 metrics
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestTable7Structure(t *testing.T) {
	tbl, err := Run("table7", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 || len(tbl.Header) != 5 {
		t.Fatalf("shape: %d rows, %d cols", len(tbl.Rows), len(tbl.Header))
	}
}

func TestCacheSweepStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("cache replay too slow for -short")
	}
	tbl, err := Run("cachesweep", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// Caching disabled: zero hits, by definition.
	if tbl.Rows[0][0] != "0" || tbl.Rows[0][1] != "0.000" {
		t.Fatalf("disabled-cache row: %v", tbl.Rows[0])
	}
	// The largest cache must do no worse than the smallest non-zero one.
	if tbl.Rows[len(tbl.Rows)-1][1] < tbl.Rows[1][1] {
		t.Fatalf("hit rate fell with capacity: %v vs %v", tbl.Rows[1], tbl.Rows[len(tbl.Rows)-1])
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "recommended default") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing recommended-default note: %v", tbl.Notes)
	}
}

func TestLOVOMethodContract(t *testing.T) {
	m := NewLOVO(7)
	if m.Name() != "LOVO" {
		t.Fatal("name")
	}
	if !m.Supports("red car") || m.Supports("zorgon") {
		t.Fatal("supports")
	}
	v := &LOVOMethod{Label: "LOVO(BF)"}
	if v.Name() != "LOVO(BF)" {
		t.Fatal("label override")
	}
}
