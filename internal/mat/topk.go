package mat

import (
	"cmp"
	"slices"
)

// Scored pairs an item identifier with a similarity score. Higher scores are
// better throughout the repository (vectors are unit-normalised so inner
// product equals cosine similarity).
type Scored struct {
	ID    int64
	Score float32
}

// TopK collects the k highest-scoring items from a stream using a bounded
// min-heap. The heap orders by the same canonical total order Sorted
// reports — descending score with ascending-ID tie-break — so the retained
// set is exactly the canonical top-k whatever the arrival order. That
// invariant is what lets a scatter-gather merge of per-shard exact top-k
// lists reproduce the monolithic exact top-k bit for bit even when distinct
// items carry equal scores (common here: the same synthetic object observed
// in two frames encodes identically). The zero value is not usable;
// construct with NewTopK.
type TopK struct {
	k    int
	heap []Scored // min-heap: worst item in canonical order at the root
}

// worse reports whether a ranks strictly below b in the canonical order
// (descending score, ascending ID).
func worse(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Before reports whether a ranks strictly before b in the canonical order:
// the heap's predicate, for selections that keep the same top k.
func Before(a, b Scored) bool { return worse(b, a) }

// NewTopK returns a collector retaining the k best items. k must be > 0.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("mat: NewTopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Scored, 0, k)}
}

// Reset empties the collector and re-arms it to retain the k best items,
// reusing the existing heap storage when it is large enough. A reset
// collector is indistinguishable from a fresh NewTopK(k); hot search paths
// pair it with GetTopK/PutTopK to avoid a heap allocation per query.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("mat: TopK.Reset requires k > 0")
	}
	t.k = k
	if cap(t.heap) < k {
		t.heap = make([]Scored, 0, k)
	} else {
		t.heap = t.heap[:0]
	}
}

// Len returns the number of items currently retained.
func (t *TopK) Len() int { return len(t.heap) }

// Threshold returns the lowest retained score once the collector is full,
// and negative infinity semantics (-MaxFloat32) before that. Callers can use
// it to skip work for candidates that cannot enter the result.
func (t *TopK) Threshold() float32 {
	if len(t.heap) < t.k {
		return -3.4028235e38
	}
	return t.heap[0].Score
}

// Push offers an item to the collector.
func (t *TopK) Push(id int64, score float32) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Scored{ID: id, Score: score})
		t.siftUp(len(t.heap) - 1)
		return
	}
	cand := Scored{ID: id, Score: score}
	if !worse(t.heap[0], cand) {
		return
	}
	t.heap[0] = cand
	t.siftDown(0)
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && worse(t.heap[l], t.heap[worst]) {
			worst = l
		}
		if r < n && worse(t.heap[r], t.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Sorted returns the retained items in descending score order, breaking ties
// by ascending ID for determinism. The collector remains usable afterwards.
func (t *TopK) Sorted() []Scored {
	out := slices.Clone(t.heap)
	slices.SortFunc(out, Canonical)
	return out
}

// SortScoredDesc sorts a slice of Scored in descending score order with
// ascending-ID tie-break, in place.
func SortScoredDesc(s []Scored) { slices.SortFunc(s, Canonical) }

// Canonical is the canonical order as a slices.SortFunc comparator:
// negative when a ranks before b (higher score, or equal score and lower
// ID). It is total over distinct IDs, so any sort under it is stable in
// effect and every algorithm yields the same bits.
func Canonical(a, b Scored) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}
