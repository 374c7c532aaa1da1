package benchmark

import (
	"math"
	"slices"
	"time"
)

// latencies summarises the timings of one kind of operation. Failed
// operations carry no timing of their own: each enters the sample at
// requestTimeout, so a failure counts as missing every latency percentile
// rather than vanishing from it.
type latencies struct {
	sorted []float64 // milliseconds, ascending, failures included
}

func newLatencies(okMs []float64, failed int) latencies {
	s := make([]float64, 0, len(okMs)+failed)
	s = append(s, okMs...)
	for i := 0; i < failed; i++ {
		s = append(s, float64(requestTimeout)/float64(time.Millisecond))
	}
	slices.Sort(s)
	return latencies{sorted: s}
}

func (l latencies) n() int { return len(l.sorted) }

// percentile is the nearest-rank percentile: the smallest sample with at
// least p of the sample at or below it. An empty sample yields 0.
func (l latencies) percentile(p float64) float64 {
	if len(l.sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(l.sorted))))
	return l.sorted[min(max(rank, 1), len(l.sorted))-1]
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tail picks the highest percentile with at least ten samples beyond it; a
// sample too small for any candidate falls back to the median.
func tail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond := n - int(math.Ceil(p*float64(n))); beyond >= 10 {
			return p
		}
	}
	return 0.5
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), which is what the driver's acceptance check computes. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	const n = 4
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
