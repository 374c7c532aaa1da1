// Scratch memory for the query hot paths.
//
// Steady-state queries should not allocate: the flat full scan, the
// IMI/IVF-PQ list scans and the cross-modality rerank all run per request
// on the QPS-critical serving tier, and per-query garbage is pure GC
// pressure. This file provides two reuse mechanisms:
//
//   - GetScratch/Scratch.Release: a size-classed sync.Pool of float32
//     buffers for flat scratch (score blocks, lookup tables). The pool
//     stores *Scratch handles, so checkout and return are allocation-free
//     in steady state (pooling bare slices would box the slice header on
//     every Put).
//   - Arena: a bump-style checkout that hands out vectors and matrices from
//     the same pools and returns everything with one Release — the shape
//     the rerank transformer needs, where one forward pass creates dozens
//     of temporaries with a common lifetime.
//
// Pooled memory is plain scratch: callers must not retain references past
// Release, and anything returned to a caller (search results, top-k lists)
// is always freshly copied.

package mat

import (
	"math/bits"
	"sync"
)

// Scratch buffers are pooled in power-of-two size classes from 1<<minClass
// to 1<<maxClass floats; larger requests fall through to plain make and are
// dropped on Release.
const (
	minClass = 6  // 64 floats (256 B)
	maxClass = 22 // 4M floats (16 MiB)
)

var scratchPools [maxClass - minClass + 1]sync.Pool

// Scratch is a pooled float32 buffer handle. Use Buf freely up to its
// length, then Release the handle; neither the handle nor Buf may be used
// afterwards.
type Scratch struct {
	class int // pool index, -1 when unpooled
	Buf   []float32
}

// classFor returns the pool index for a request of n floats, or -1 when the
// request is out of pooled range.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c < minClass {
		c = minClass
	}
	if c > maxClass {
		return -1
	}
	return c - minClass
}

// GetScratch returns a pooled handle whose Buf is a zeroed float32 slice of
// length n.
func GetScratch(n int) *Scratch { return getScratch(n, true) }

// getScratch is GetScratch with the zero fill optional: a recycled buffer
// keeps its previous contents unless zero is set.
func getScratch(n int, zero bool) *Scratch {
	c := classFor(n)
	if c < 0 {
		return &Scratch{class: -1, Buf: make([]float32, n)}
	}
	var s *Scratch
	if v := scratchPools[c].Get(); v != nil {
		s = v.(*Scratch)
		s.Buf = s.Buf[:n]
		if zero {
			clear(s.Buf)
		}
	} else {
		s = &Scratch{class: c, Buf: make([]float32, n, 1<<(c+minClass))}
	}
	return s
}

// Release returns the buffer to its pool.
func (s *Scratch) Release() {
	if s.class < 0 {
		return // oversized one-off; let the GC have it
	}
	s.Buf = s.Buf[:0]
	scratchPools[s.class].Put(s)
}

// Arena hands out pooled vectors and matrices that share one lifetime.
// Acquire with GetArena, allocate freely, and call Release once; every
// checked-out buffer returns to the pools. Not safe for concurrent use —
// each goroutine takes its own arena.
type Arena struct {
	held []*Scratch
	mats []*Matrix
	used int // matrix headers handed out this cycle
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena returns an empty arena from the pool.
func GetArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// Vec returns a zeroed length-n vector valid until Release.
func (a *Arena) Vec(n int) Vec { return a.vec(n, true) }

func (a *Arena) vec(n int, zero bool) Vec {
	s := getScratch(n, zero)
	a.held = append(a.held, s)
	return s.Buf
}

// Matrix returns a zeroed rows×cols matrix valid until Release.
func (a *Arena) Matrix(rows, cols int) *Matrix { return a.matrix(rows, cols, true) }

// MatrixUninit returns a rows×cols matrix valid until Release whose
// contents are whatever its pooled buffer last held: for a Gemm
// destination or a copy target the caller overwrites whole, where the
// zero fill is wasted work.
func (a *Arena) MatrixUninit(rows, cols int) *Matrix { return a.matrix(rows, cols, false) }

func (a *Arena) matrix(rows, cols int, zero bool) *Matrix {
	var m *Matrix
	if a.used < len(a.mats) {
		m = a.mats[a.used]
	} else {
		m = new(Matrix)
		a.mats = append(a.mats, m)
	}
	a.used++
	m.Rows, m.Cols = rows, cols
	m.Data = a.vec(rows*cols, zero)
	return m
}

// Release returns every buffer to the pools and the arena itself to its
// pool. The arena and everything it handed out must not be used afterwards.
func (a *Arena) Release() {
	for i, s := range a.held {
		s.Release()
		a.held[i] = nil
	}
	a.held = a.held[:0]
	for _, m := range a.mats[:a.used] {
		m.Data = nil
	}
	a.used = 0
	arenaPool.Put(a)
}

// topkPool recycles TopK collectors across Search calls; see GetTopK.
var topkPool = sync.Pool{New: func() any { return &TopK{} }}

// GetTopK returns a pooled top-k collector reset to capacity k. Pair with
// PutTopK once the results have been copied out (TopK.Sorted copies).
func GetTopK(k int) *TopK {
	t := topkPool.Get().(*TopK)
	t.Reset(k)
	return t
}

// PutTopK returns a collector obtained from GetTopK to the pool.
func PutTopK(t *TopK) {
	topkPool.Put(t)
}
