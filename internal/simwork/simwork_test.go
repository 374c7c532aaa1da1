package simwork

import (
	"math"
	"testing"
	"time"
)

func TestBurnScalesWithCost(t *testing.T) {
	// Interleave the two costs so background load affects both equally.
	var small, large time.Duration
	for i := 0; i < 30; i++ {
		s := time.Now()
		Burn(1_000)
		small += time.Since(s)
		s = time.Now()
		Burn(20_000)
		large += time.Since(s)
	}
	if large < small*3 {
		t.Fatalf("20x work should take clearly longer: %v vs %v", small, large)
	}
}

func TestBurnZeroIsNoop(t *testing.T) {
	Burn(0) // must not panic or hang
}

func TestSinkObservable(t *testing.T) {
	Burn(1)
	if Sink() == 0 {
		t.Fatal("Burn must produce a nonzero accumulation")
	}
}

func TestBurnConcurrent(t *testing.T) {
	// Run under -race: concurrent Burn calls must not race on the sink.
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				Burn(100)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if Sink() == 0 {
		t.Fatal("concurrent Burn must still accumulate")
	}
}

// TestBurnLoopMatchesGo holds the loop Burn runs (assembly on amd64) to the
// Go loop, bit for bit on the accumulation Sink reports.
func TestBurnLoopMatchesGo(t *testing.T) {
	for _, cost := range []int{1, 2, 7, 64, 1000, 16 * 9 * 220} {
		want := burnGo(cost)
		if got := burnLoop(cost); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("burnLoop(%d) = %v, Go loop %v", cost, got, want)
		}
		Burn(cost)
		if got := Sink(); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Burn(%d) left Sink() = %v, Go loop %v", cost, got, want)
		}
	}
}

// BenchmarkBurn measures one keyframe's modelled ViT cost: 16×9 patches at
// vit's encodeCost of 220 units each.
func BenchmarkBurn(b *testing.B) {
	for n := 0; n < b.N; n++ {
		Burn(16 * 9 * 220)
	}
}
