package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in spec.go are two copies of one
// declaration; this is what keeps them one.
func TestManifestMatchesTheDeclaredTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(m.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, spec.go %q: %q", i, m.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []Metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, spec.go %s [%s] %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %g in spec.go", kind, w.Name, g.Bound, w.Bound)
			}
			if !nameRE.MatchString(w.Name) || !unitRE.MatchString(w.Unit) || (w.Better != "lower" && w.Better != "higher") {
				t.Errorf("%s %s [%s] %s: outside the contract's alphabet", kind, w.Name, w.Unit, w.Better)
			}
			if seen[w.Name] {
				t.Errorf("%s %s declared twice", kind, w.Name)
			}
			seen[w.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, EndToEnd, true)
	check("per_layer", m.PerLayer, PerLayer, false)
	if EndToEnd[0].Name != "setup_s" || EndToEnd[0].Unit != "s" || EndToEnd[0].Better != "lower" {
		t.Error("the contract wants a setup_s metric in seconds, lower is better")
	}
	for _, e := range EndToEnd[1:] {
		if e.Bound > EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

func names(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// All four workloads, end to end, on tiny corpora: every declared metric is
// emitted under its declared name and unit, every answer verifies, and the
// traced pass's re-composed answers match the HTTP answers.
func TestSmokeAllWorkloads(t *testing.T) {
	m := readManifest(t)
	wantE2E, wantLayer := make(map[string]string), make(map[string]string)
	for _, e := range m.EndToEnd {
		wantE2E[e.Name] = e.Unit
	}
	for _, e := range m.PerLayer {
		wantLayer[e.Name] = e.Unit
	}
	units := func(got map[string]metricValue) map[string]string {
		out := make(map[string]string, len(got))
		for k, v := range got {
			out[k] = v.Unit
		}
		return out
	}
	for _, w := range m.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := Run(context.Background(), RunConfig{
				Workload: w.Name, Seed: 1, Window: time.Second, Trace: true, Smoke: true, TraceDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%t attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Reasons)
			}
			if got := units(res.EndToEnd); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", names(res.EndToEnd), wantE2E)
			}
			if got := units(res.PerLayer); !reflect.DeepEqual(got, wantLayer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", names(res.PerLayer), wantLayer)
			}
			for name, v := range res.EndToEnd {
				if !(v.Value > 0) {
					t.Errorf("%s = %v: a gated metric must never be 0", name, v.Value)
				}
			}
			var tf traceFile
			data, err := os.ReadFile(dir + "/trace-" + w.Name + ".json")
			if err == nil {
				err = json.Unmarshal(data, &tf)
			}
			if err != nil || tf.Workload != w.Name || len(tf.Spans) == 0 {
				t.Errorf("trace file: %v (%d spans)", err, len(tf.Spans))
			}
		})
	}
}
