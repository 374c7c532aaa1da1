package benchmark

import "testing"

func TestJudge(t *testing.T) {
	lower := Metric{Name: "some_ms", Better: "lower", Bound: 0.10}
	higher := Metric{Name: "some_rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	for _, c := range []struct {
		name string
		m    Metric
		a, b []float64
		want string
	}{
		{"same runs", lower, steady, steady, verdictUnchanged},
		{"3% slower is inside the bound", lower, steady, shifted(steady, 1.03), verdictUnchanged},
		{"15% slower", lower, steady, shifted(steady, 1.15), verdictRegressed},
		{"15% faster wins every pair", lower, steady, shifted(steady, 0.85), verdictImproved},
		{"15% less throughput", higher, steady, shifted(steady, 0.85), verdictRegressed},
		{"15% more throughput", higher, steady, shifted(steady, 1.15), verdictImproved},
		{"parent spread wider than the bound", lower, noisy, shifted(noisy, 1.5), verdictUnresolved},
		{"a better median that loses pairs is no gain", lower, steady, []float64{90, 90, 90, 90, 90, 90, 90, 101, 100, 102}, verdictUnchanged},
	} {
		if got := judge(c.m, c.a, c.b); got.Verdict != c.want {
			t.Errorf("%s: %s (wins %d/%d, parent %v, change %v), want %s", c.name, got.Verdict, got.Wins, got.Pairs, got.A, got.B, c.want)
		}
	}
}

func TestCompareReportsRowsAndExitCode(t *testing.T) {
	report := func(p50 float64) *Report {
		rep := &Report{}
		for i := 0; i < 5; i++ {
			rep.Runs = append(rep.Runs, &Result{Workload: "interactive", Correct: true,
				EndToEnd: map[string]metricValue{"query_p50_ms": {Value: p50 + float64(i)/100, Unit: "ms"}}})
		}
		return rep
	}
	rows := compareReports(report(10), report(14))
	if len(rows) != 1 || rows[0].Workload != "interactive" || rows[0].Metric != "query_p50_ms" || rows[0].Verdict != verdictRegressed {
		t.Fatalf("rows = %+v", rows)
	}
	var sink discard
	if code := printComparison(report(10), report(14), &sink); code != 1 {
		t.Errorf("a regression exits %d", code)
	}
	if code := printComparison(report(10), report(10), &sink); code != 0 {
		t.Errorf("no change exits %d", code)
	}
	failing := report(10)
	failing.Runs[0].Failed = 1
	if code := printComparison(report(10), failing, &sink); code != 1 {
		t.Errorf("more failed operations than the parent exits %d", code)
	}
}

type discard struct{}

func (*discard) Write(p []byte) (int, error) { return len(p), nil }
