package benchmark

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 0.5},       // nothing has ten beyond it
		{40, 0.75},      // 40 - 30 = 10
		{100, 0.90},     // 100 - 90 = 10
		{199, 0.90},     // p95 leaves 9
		{200, 0.95},     // 200 - 190 = 10
		{1000, 0.99},    // 1000 - 990 = 10
		{9999, 0.99},    // p99.9 leaves 9
		{10000, 0.999},  // 10000 - 9990 = 10
		{100000, 0.999}, // the highest candidate
	} {
		if got := tail(c.n); got != c.want {
			t.Errorf("tail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	l := newLatencies(xs, 0)
	for p, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := l.percentile(p); got != want {
			t.Errorf("p%g = %g, want %g", p*100, got, want)
		}
	}
	if got := (latencies{}).percentile(0.5); got != 0 {
		t.Errorf("empty sample p50 = %g", got)
	}
}

func TestFailedOperationsCountAgainstEveryPercentile(t *testing.T) {
	ok := make([]float64, 90)
	for i := range ok {
		ok[i] = 1 + float64(i)/100 // all under 2 ms
	}
	l := newLatencies(ok, 10)
	if l.n() != 100 {
		t.Fatalf("n = %d: failures must stay in the sample", l.n())
	}
	timeout := ms(requestTimeout)
	if got := l.percentile(0.95); got != timeout {
		t.Errorf("p95 = %g ms with 10%% failures, want the timeout %g ms", got, timeout)
	}
	if got := l.percentile(0.5); got >= 2 {
		t.Errorf("p50 = %g ms, want an ok sample", got)
	}
	// The same failures drag the median too once they are the majority.
	if got := newLatencies(ok[:10], 90).percentile(0.5); got != timeout {
		t.Errorf("p50 = %g ms with 90%% failures, want the timeout", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

// A stalled server must inflate the open-loop requests queued behind the
// stall: their latency runs from the instant they were due, not from the
// instant the single connection got round to sending them.
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		stall    = 150 * time.Millisecond
	)
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	r := &runner{st: &stack{url: srv.URL, client: srv.Client()}}
	bodies := make([][]byte, 12) // the last is due 70 ms after the stall ends
	start := time.Now().Add(10 * time.Millisecond)
	samples := r.openLoopWriter(context.Background(), bodies, start, interval)
	if len(samples) != len(bodies) {
		t.Fatalf("sent %d of %d", len(samples), len(bodies))
	}
	for k, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", k)
		}
		if want := start.Add(time.Duration(k) * interval); !s.due.Equal(want) {
			t.Errorf("request %d due %v, want %v", k, s.due, want)
		}
	}
	if got := samples[0].sojourn(); got < stall {
		t.Errorf("stalled request took %v, want >= %v", got, stall)
	}
	// Request 1 was due 20 ms in but could only be sent once the stall was
	// over: it is late by the rest of the stall, and its latency says so even
	// though its own round trip was quick.
	if late, want := samples[1].late(), stall-interval-5*time.Millisecond; late < want {
		t.Errorf("request behind the stall was %v late, want >= %v", late, want)
	}
	if samples[1].sojourn() < samples[1].late() || samples[1].rtt() >= samples[1].late() {
		t.Errorf("request behind the stall: latency %v, lateness %v, round trip %v",
			samples[1].sojourn(), samples[1].late(), samples[1].rtt())
	}
	// Once the backlog has drained the writer is back on schedule.
	if late := samples[len(samples)-1].late(); late > interval {
		t.Errorf("last request still %v late", late)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "op", StartUs: 0, EndUs: 100},
		{ID: 1, Parent: 0, Name: "a", StartUs: 10, EndUs: 40},
		{ID: 2, Parent: 0, Name: "b", StartUs: 30, EndUs: 60}, // overlaps a: parallel legs
		{ID: 3, Parent: 1, Name: "a.child", StartUs: 15, EndUs: 25},
		{ID: 4, Parent: 0, Name: "c", StartUs: 90, EndUs: 120}, // runs past its parent
		{ID: 5, Parent: -1, Name: "replay", StartUs: 200, EndUs: 230, Replay: true},
	}
	want := []float64{
		100 - (60 - 10) - (100 - 90), // op: the union 10..60, and 90..100 of c
		30 - 10,                      // a minus its child
		30,                           // b
		10,                           // a.child
		30,                           // c
		30,                           // a replay is its own root
	}
	for i, d := range selfTimes(spans) {
		if got := us(d); math.Abs(got-want[i]) > 1e-6 {
			t.Errorf("self time of %s = %g us, want %g", spans[i].Name, got, want[i])
		}
	}
	if got := us(covered(spans[1:3], 0, 100)); got != 50 {
		t.Errorf("two overlapping legs cover %g us, want 50", got)
	}
}
