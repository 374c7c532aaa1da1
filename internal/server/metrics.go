package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, exponential
// from 100µs to 10s — wide enough to cover a cache hit and a cold
// exhaustive scan on the same axis.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram safe for concurrent use.
type histogram struct {
	mu     sync.Mutex
	counts []uint64 // counts[i] observations <= latencyBuckets[i]; one extra for +Inf
	sum    float64
	count  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.mu.Lock()
	h.counts[i]++
	h.sum += sec
	h.count++
	h.mu.Unlock()
}

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the owning bucket; 0 when empty.
func (h *histogram) quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latencyBuckets[i-1]
		}
		hi := 2 * lo // +Inf bucket: extrapolate
		if i < len(latencyBuckets) {
			hi = latencyBuckets[i]
		}
		if c == 0 {
			return lo
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// writeProm renders the histogram in Prometheus text exposition format.
func (h *histogram) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	h.writePromSeries(w, name, "")
}

// writePromSeries renders the bucket/sum/count series with an optional
// extra label (the caller owns the # TYPE header, so many labeled series
// can share one metric family).
func (h *histogram) writePromSeries(w io.Writer, name, label string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	sep := ""
	if label != "" {
		sep = ","
	}
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n", name, label, sep, promFloat(ub), cum)
	}
	cum += counts[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, cum)
	if label == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(sum))
		fmt.Fprintf(w, "%s_count %d\n", name, count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, label, promFloat(sum))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, count)
	}
}

// promFloat formats a float the way Prometheus expects (no exponent for
// the magnitudes we use, trailing zeros trimmed).
func promFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	s := fmt.Sprintf("%g", v)
	return s
}

// queryStages are the per-stage latency series under lovod_stage_seconds:
// plan resolution and the cache lookup are measured server-side on every
// query, alone or in a batch; stage1 (scatter + merge) and rerank come from
// the backend's Result timings, so they only record on queries that
// actually executed, once per execution (cache hits and coalesced waiters
// have no stage 1 of their own to attribute).
var queryStages = []string{"plan", "cache", "stage1", "rerank"}

// errorKinds are the lovod_query_errors_total label values: "validation"
// (the request itself is bad — 4xx), "not_ready" (the index is still
// building), "backend_down" (a shard backend is unreachable), "internal"
// (everything that is our fault).
var errorKinds = []string{"validation", "not_ready", "backend_down", "internal"}

// serverMetrics aggregates the serving-tier counters exposed at /metrics.
type serverMetrics struct {
	queries      atomic.Uint64 // /query requests answered (cache hits included)
	batchQueries atomic.Uint64 // individual queries served via /query/batch
	ingests      atomic.Uint64 // videos accepted via /ingest
	errors       atomic.Uint64 // requests rejected or failed
	latency      *histogram    // per-query serve latency (cache hits included)

	// stages holds one fixed histogram per query stage (see queryStages),
	// rendered as lovod_stage_seconds{stage="..."}. Debug-tier endpoints
	// never observe into these — nor into latency — so observability
	// traffic cannot pollute the serving series.
	stages map[string]*histogram

	planMu sync.Mutex
	plans  map[string]uint64 // resolved plans by kind (cache hits included)

	errMu    sync.Mutex
	errKinds map[string]uint64 // failed requests by kind (see errorKinds)
}

func newServerMetrics() *serverMetrics {
	stages := make(map[string]*histogram, len(queryStages))
	for _, st := range queryStages {
		stages[st] = newHistogram()
	}
	return &serverMetrics{
		latency:  newHistogram(),
		stages:   stages,
		plans:    make(map[string]uint64),
		errKinds: make(map[string]uint64),
	}
}

// observeStage records one stage duration into its labeled histogram.
// Unknown stages are dropped rather than grown: the label set is fixed so
// /metrics cardinality cannot creep.
func (m *serverMetrics) observeStage(stage string, d time.Duration) {
	if h, ok := m.stages[stage]; ok {
		h.observe(d)
	}
}

// noteError counts one failed request under its kind label (plus the
// untyped errors total, kept for compatibility).
func (m *serverMetrics) noteError(kind string) {
	m.errors.Add(1)
	m.errMu.Lock()
	m.errKinds[kind]++
	m.errMu.Unlock()
}

// errorCounts snapshots the per-kind error counters.
func (m *serverMetrics) errorCounts() map[string]uint64 {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	out := make(map[string]uint64, len(m.errKinds))
	for k, v := range m.errKinds {
		out[k] = v
	}
	return out
}

// writeStageMetrics renders the per-stage latency histograms as one
// labeled family, in declaration order so scrapes are byte-stable.
func (m *serverMetrics) writeStageMetrics(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, st := range queryStages {
		m.stages[st].writePromSeries(w, name, fmt.Sprintf("stage=%q", st))
	}
}

// writeErrorMetrics renders the per-kind error counter. Every kind prints
// even at zero, so dashboards see the full label set from the first
// scrape.
func (m *serverMetrics) writeErrorMetrics(w io.Writer) {
	counts := m.errorCounts()
	fmt.Fprintf(w, "# TYPE lovod_query_errors_total counter\n")
	for _, k := range errorKinds {
		fmt.Fprintf(w, "lovod_query_errors_total{kind=%q} %d\n", k, counts[k])
	}
}

// notePlan counts one resolved plan of the given kind.
func (m *serverMetrics) notePlan(kind string) {
	m.planMu.Lock()
	m.plans[kind]++
	m.planMu.Unlock()
}

// planCounts snapshots the per-kind plan counters; nil when no query has
// been planned yet (so /stats omits the field instead of showing {}).
func (m *serverMetrics) planCounts() map[string]uint64 {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	if len(m.plans) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m.plans))
	for k, v := range m.plans {
		out[k] = v
	}
	return out
}

// writePlanMetrics renders the per-kind plan counter with a kind label, in
// sorted order so scrapes are byte-stable.
func writePlanMetrics(w io.Writer, plans map[string]uint64) {
	fmt.Fprintf(w, "# TYPE lovod_plan_chosen_total counter\n")
	kinds := make([]string, 0, len(plans))
	for k := range plans {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "lovod_plan_chosen_total{kind=\"%s\"} %d\n", k, plans[k])
	}
}

func counter(w io.Writer, name string, v uint64) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
}

func gauge(w io.Writer, name string, v float64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(v))
}
