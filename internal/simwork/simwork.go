// Package simwork provides the simulated-compute primitive shared by every
// stand-in for GPU model inference (ViT encoders, detectors, moment
// transformers, LLM decoding). Burn performs real dense floating-point work
// so that measured latencies scale with the amount of inference each
// architecture performs — the property the paper's runtime comparisons
// depend on — while the semantic outputs come from the synthetic channels.
//
// One unit is one 64-dimensional dot product (~tens of nanoseconds); cost
// constants across the repository are expressed in these units.
package simwork

import (
	"math"
	"sync/atomic"
)

var bufA, bufB [64]float32

func init() {
	for i := range bufA {
		bufA[i] = float32(i%7) * 0.25
		bufB[i] = float32(i%5) * 0.5
	}
}

// sink defeats dead-code elimination. Burn runs concurrently under the
// parallel ingest/rerank engine, so the store must be atomic.
var sink atomic.Uint32

// Sink returns the last nonzero Burn accumulation; exported so tests can
// observe that Burn's work is not eliminated.
func Sink() float32 { return math.Float32frombits(sink.Load()) }

// Burn performs cost units of work. It is safe to call from many goroutines.
func Burn(cost int) {
	if cost <= 0 {
		return
	}
	sink.Store(math.Float32bits(burnLoop(cost)))
}

// burnGo is the burn loop in Go: per unit, a serial 64-term product sum
// added into the accumulator it returns. On amd64 Burn runs burnLoop, the
// same instructions in assembly (burn_amd64.s), and this is the reference
// its test compares against.
func burnGo(cost int) float32 {
	var acc float32
	for c := 0; c < cost; c++ {
		var s float32
		for i := 0; i < 64; i++ {
			//lovo:kernel-ok deliberate un-optimized burn loop: the point is spending cycles the compiler cannot elide, not computing a dot product
			s += bufA[i] * bufB[i]
		}
		acc += s
	}
	return acc
}
