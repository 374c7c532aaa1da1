// Package ann defines the common interface implemented by the approximate
// nearest-neighbour indexes (flat brute force, IVF-PQ, the inverted
// multi-index, HNSW) — the ANN-variant axis of the paper's Table V — and
// the row store they all borrow.
//
// Every vector is resident once, in a Rows owned by the collection. An
// index is built over a *Rows and keeps only its own structures, addressed
// by dense row position; its exact phase (Algorithm 1's re-score, the flat
// scan, Params.Exhaustive) reads the rows through the pointer, and
// Rows.TopK/TopKBatch is the one blocked exact scan every index and the
// unindexed fallback share.
//
// Similarity is the inner product; all stored and query vectors are unit
// normalised, so inner product equals cosine similarity and higher is
// better (Section V-A).
package ann

import "repro/internal/mat"

// Params tunes a search call. Zero values select per-index defaults.
type Params struct {
	// NProbe is the number of clusters probed per (sub)space — the
	// "number of clusters queried A" of Algorithm 1. Used by IVF-PQ and
	// the inverted multi-index.
	NProbe int
	// Ef is the HNSW dynamic candidate-list size (efSearch).
	Ef int
	// Exhaustive disables pruning: every index answers with Rows.TopK, the
	// exact blocked scan over all stored rows — the "w/o ANNS" ablation of
	// Table IV. Its answers are identical on every index kind, and it
	// ignores Int8.
	Exhaustive bool
	// Int8 selects the int8-quantized stage-1 scoring path where the
	// index supports it (flat, IVF-PQ): candidates are scored through
	// symmetric per-vector int8 codes (quant.Int8Block) and the shortlist
	// is re-scored exactly against the rows, so returned scores are exact.
	// Unlike the float32 kernel tiers the candidate selection is
	// recall-gated, not bit-identical — the planner only selects it when
	// calibration shows the measured recall meets the declared bound.
	Int8 bool
}

// Index is a vector index over the rows of a Rows store.
type Index interface {
	// Kind returns the index family name ("flat", "ivfpq", "imi",
	// "hnsw").
	Kind() string
	// Len returns the number of indexed rows.
	Len() int
	// Add indexes the row its store has just appended; row must equal
	// Len(). Quantizing indexes code it with their trained codebooks.
	Add(row int)
	// Search returns the k most similar vectors in descending score
	// order.
	Search(q mat.Vec, k int, p Params) []mat.Scored
	// Memory returns an estimate of the index's own resident bytes —
	// excluding the borrowed rows — for the storage-size experiments.
	Memory() int64
}
