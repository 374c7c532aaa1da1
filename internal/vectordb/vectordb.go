// Package vectordb implements the embedded vector database of Section V —
// the role Milvus plays in the paper's deployment. It manages named
// collections of unit-normalised vectors, supports pluggable index builds
// (flat brute force, IVF-PQ, the inverted multi-index, HNSW), incremental
// inserts that flow into a built index, top-k inner-product search with
// per-call parameters, usage statistics, and binary snapshot persistence.
package vectordb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ann"
	"repro/internal/ann/flat"
	"repro/internal/ann/hnsw"
	"repro/internal/ann/imi"
	"repro/internal/ann/ivfpq"
	"repro/internal/mat"
)

// IndexKind names an index family.
type IndexKind string

// Supported index kinds.
const (
	IndexFlat  IndexKind = "flat"
	IndexIVFPQ IndexKind = "ivfpq"
	IndexIMI   IndexKind = "imi"
	IndexHNSW  IndexKind = "hnsw"
)

// ParseKind resolves a command-line index name to its kind; the empty
// string selects the default (IMI), and "bf" aliases the brute-force flat
// scan.
func ParseKind(name string) (IndexKind, error) {
	switch name {
	case "", "imi":
		return IndexIMI, nil
	case "ivfpq":
		return IndexIVFPQ, nil
	case "hnsw":
		return IndexHNSW, nil
	case "flat", "bf":
		return IndexFlat, nil
	default:
		return "", fmt.Errorf("unknown index %q (imi|ivfpq|hnsw|flat)", name)
	}
}

// IndexOptions is the union of per-kind build options; zero values select
// defaults.
type IndexOptions struct {
	// NList is the IVF coarse-cluster count.
	NList int
	// P and M shape the product quantizer (IVF-PQ residuals, IMI cells).
	P, M int
	// KeepRaw retains raw vectors inside quantizing indexes for exact
	// re-scoring.
	KeepRaw bool
	// M0 and EfConstruction shape the HNSW graph.
	M0, EfConstruction int
	// Seed drives training and level sampling.
	Seed uint64
}

// Schema describes a collection.
type Schema struct {
	// Dim is the vector dimensionality.
	Dim int
	// Normalize, when set, L2-normalises vectors on insert so inner
	// product equals cosine similarity (Section V-A).
	Normalize bool
}

// Errors returned by the database.
var (
	ErrNotFound   = errors.New("vectordb: not found")
	ErrExists     = errors.New("vectordb: already exists")
	ErrDuplicate  = errors.New("vectordb: duplicate id")
	ErrDimension  = errors.New("vectordb: dimension mismatch")
	ErrEmptyBuild = errors.New("vectordb: cannot build index over empty collection")
)

// Collection is a named set of (id, vector) pairs with an optional index.
type Collection struct {
	name   string
	schema Schema

	mu      sync.RWMutex
	ids     []int64
	byID    map[int64]int
	data    []float32 // row-major raw vectors
	index   ann.Index
	kind    IndexKind
	options IndexOptions
	// indexBytes is index.Memory() as recorded when the index was
	// installed, so Stats on an immutable sealed segment is a counter read
	// instead of a walk over every posting list. An Insert into a built
	// index invalidates it (-1) until the next build.
	indexBytes int64
}

// DB is a set of collections.
type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
}

// New returns an empty database.
func New() *DB {
	return &DB{collections: make(map[string]*Collection)}
}

// CreateCollection adds a new collection.
func (db *DB) CreateCollection(name string, schema Schema) (*Collection, error) {
	if schema.Dim <= 0 {
		return nil, fmt.Errorf("%w: dim %d", ErrDimension, schema.Dim)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.collections[name]; ok {
		return nil, fmt.Errorf("%w: collection %q", ErrExists, name)
	}
	c := &Collection{name: name, schema: schema, byID: make(map[int64]int)}
	db.collections[name] = c
	return c, nil
}

// Collection fetches a collection by name.
func (db *DB) Collection(name string) (*Collection, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.collections[name]
	if !ok {
		return nil, fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	return c, nil
}

// Drop removes a collection.
func (db *DB) Drop(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.collections[name]; !ok {
		return fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	delete(db.collections, name)
	return nil
}

// Names lists collection names sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.collections))
	for n := range db.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Schema returns the collection's schema.
func (c *Collection) Schema() Schema { return c.schema }

// Len returns the number of stored vectors.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ids)
}

// Insert stores one vector. If an index is built, the vector also enters
// the index.
func (c *Collection) Insert(id int64, v mat.Vec) error {
	if len(v) != c.schema.Dim {
		return fmt.Errorf("%w: %d != %d", ErrDimension, len(v), c.schema.Dim)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byID[id]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicate, id)
	}
	w := mat.Clone(v)
	if c.schema.Normalize {
		mat.Normalize(w)
	}
	c.byID[id] = len(c.ids)
	c.ids = append(c.ids, id)
	c.data = append(c.data, w...)
	if c.index != nil {
		if err := c.index.Add(id, w); err != nil {
			return fmt.Errorf("vectordb: index insert: %w", err)
		}
		c.indexBytes = -1
	}
	return nil
}

// InsertBatch stores aligned ids and vectors, stopping at the first error.
func (c *Collection) InsertBatch(ids []int64, vecs []mat.Vec) error {
	if len(ids) != len(vecs) {
		return errors.New("vectordb: ids/vecs length mismatch")
	}
	for i := range ids {
		if err := c.Insert(ids[i], vecs[i]); err != nil {
			return err
		}
	}
	return nil
}

// vector returns row i of the raw store (caller must hold the lock).
func (c *Collection) vector(i int) mat.Vec {
	return c.data[i*c.schema.Dim : (i+1)*c.schema.Dim]
}

// Scan visits every stored vector in insertion order until fn returns
// false. The visited slice aliases the store — fn must not retain or
// mutate it — and the collection is read-locked for the whole scan, so fn
// must not call back into the collection.
func (c *Collection) Scan(fn func(id int64, v mat.Vec) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, id := range c.ids {
		if !fn(id, c.vector(i)) {
			return
		}
	}
}

// Vector fetches a stored vector by id.
func (c *Collection) Vector(id int64) (mat.Vec, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return mat.Clone(c.vector(i)), nil
}

// constructIndex builds an index over aligned ids and row-major data
// without touching any lock — the shared core of BuildIndex and
// BuildIndexSealed.
func constructIndex(dim int, ids []int64, data []float32, kind IndexKind, opts IndexOptions) (ann.Index, error) {
	if len(ids) == 0 {
		return nil, ErrEmptyBuild
	}
	vecs := make([]mat.Vec, len(ids))
	for i := range ids {
		vecs[i] = data[i*dim : (i+1)*dim]
	}
	switch kind {
	case IndexFlat:
		fl := flat.New(dim)
		for i, id := range ids {
			if err := fl.Add(id, vecs[i]); err != nil {
				return nil, err
			}
		}
		return fl, nil
	case IndexIVFPQ:
		return ivfpq.Build(ids, vecs, ivfpq.Config{
			NList: opts.NList, P: opts.P, M: opts.M, KeepRaw: opts.KeepRaw, Seed: opts.Seed,
		})
	case IndexIMI:
		return imi.Build(ids, vecs, imi.Config{
			P: opts.P, M: opts.M, KeepRaw: opts.KeepRaw, Seed: opts.Seed,
		})
	case IndexHNSW:
		hn := hnsw.New(dim, hnsw.Config{M: opts.M0, EfConstruction: opts.EfConstruction, Seed: opts.Seed})
		for i, id := range ids {
			if err := hn.Add(id, vecs[i]); err != nil {
				return nil, err
			}
		}
		return hn, nil
	default:
		return nil, fmt.Errorf("vectordb: unknown index kind %q", kind)
	}
}

// BuildIndex constructs (or replaces) the collection's index. The
// collection is write-locked for the whole build; concurrent searches
// block until the index is installed.
func (c *Collection) BuildIndex(kind IndexKind, opts IndexOptions) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix, err := constructIndex(c.schema.Dim, c.ids, c.data, kind, opts)
	if err != nil {
		return err
	}
	c.installIndex(ix, kind, opts)
	return nil
}

// installIndex swaps in a freshly built index and records its footprint
// (caller holds the write lock).
func (c *Collection) installIndex(ix ann.Index, kind IndexKind, opts IndexOptions) {
	c.index, c.kind, c.options = ix, kind, opts
	c.indexBytes = ix.Memory()
}

// BuildIndexSealed constructs the index off-lock: the vector set is
// snapshotted under a brief read lock, the index is built with no lock
// held (searches keep answering from the exact-scan fallback throughout),
// and the finished index is installed under a brief write lock. The caller
// must guarantee no concurrent Insert — the contract a sealed, immutable
// segment satisfies by construction.
func (c *Collection) BuildIndexSealed(kind IndexKind, opts IndexOptions) error {
	c.mu.RLock()
	ids, data := c.ids, c.data
	c.mu.RUnlock()
	ix, err := constructIndex(c.schema.Dim, ids, data, kind, opts)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.installIndex(ix, kind, opts)
	c.mu.Unlock()
	return nil
}

// IndexKind returns the built index kind, or "" when unindexed.
func (c *Collection) IndexKind() IndexKind {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.kind
}

// Search returns the k most similar stored vectors. Unindexed collections
// fall back to an exact scan over raw vectors.
func (c *Collection) Search(q mat.Vec, k int, p ann.Params) ([]mat.Scored, error) {
	if len(q) != c.schema.Dim {
		return nil, fmt.Errorf("%w: query %d != %d", ErrDimension, len(q), c.schema.Dim)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index != nil {
		return c.index.Search(q, k, p), nil
	}
	if k <= 0 || len(c.ids) == 0 {
		return nil, nil
	}
	// Unindexed fallback: the same blocked-kernel full scan the flat index
	// runs, over the collection's contiguous raw storage.
	top := mat.GetTopK(k)
	defer mat.PutTopK(top)
	scratch := mat.GetScratch(mat.ScanBlock)
	defer scratch.Release()
	dim := c.schema.Dim
	for start := 0; start < len(c.ids); start += mat.ScanBlock {
		end := start + mat.ScanBlock
		if end > len(c.ids) {
			end = len(c.ids)
		}
		scores := mat.ScoreRows(scratch.Buf[:end-start], q, c.data[start*dim:end*dim], dim)
		for i, s := range scores {
			top.Push(c.ids[start+i], s)
		}
	}
	return top.Sorted(), nil
}

// batchSearcher is the optional index fast path SearchBatch dispatches to:
// an index that can answer many queries in one cache-blocked sweep over its
// storage (flat implements it via mat.ScoreRowsBatch). Results must be
// bit-identical to per-query Search calls.
type batchSearcher interface {
	SearchBatch(qs []mat.Vec, k int, p ann.Params) [][]mat.Scored
}

// SearchBatch answers many queries under one set of search parameters,
// results aligned with qs. When the built index implements batchSearcher the
// whole batch shares one memory sweep; otherwise (other index kinds, or the
// unindexed fallback) each query runs through the same code path Search
// uses. Either way the results are bit-identical to per-query Search calls.
func (c *Collection) SearchBatch(qs []mat.Vec, k int, p ann.Params) ([][]mat.Scored, error) {
	for i, q := range qs {
		if len(q) != c.schema.Dim {
			return nil, fmt.Errorf("%w: batch query %d: %d != %d", ErrDimension, i, len(q), c.schema.Dim)
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if bs, ok := c.index.(batchSearcher); ok {
		return bs.SearchBatch(qs, k, p), nil
	}
	out := make([][]mat.Scored, len(qs))
	if c.index != nil {
		for i, q := range qs {
			out[i] = c.index.Search(q, k, p)
		}
		return out, nil
	}
	if k <= 0 || len(c.ids) == 0 {
		return out, nil
	}
	// Unindexed fallback: the blocked full scan of Search, but every
	// ScanBlock chunk of rows is scored by ALL queries while cache-resident
	// (mat.ScoreRowsBatch) — one memory pass instead of len(qs).
	tops := make([]*mat.TopK, len(qs))
	for i := range qs {
		tops[i] = mat.GetTopK(k)
	}
	defer func() {
		for _, t := range tops {
			mat.PutTopK(t)
		}
	}()
	scratch := mat.GetScratch(len(qs) * mat.ScanBlock)
	defer scratch.Release()
	dim := c.schema.Dim
	dsts := make([][]float32, len(qs))
	for start := 0; start < len(c.ids); start += mat.ScanBlock {
		end := start + mat.ScanBlock
		if end > len(c.ids) {
			end = len(c.ids)
		}
		n := end - start
		for j := range dsts {
			off := j * mat.ScanBlock
			dsts[j] = scratch.Buf[off : off+n : off+mat.ScanBlock]
		}
		mat.ScoreRowsBatch(dsts, qs, c.data[start*dim:end*dim], dim)
		for j := range qs {
			for i, s := range dsts[j] {
				tops[j].Push(c.ids[start+i], s)
			}
		}
	}
	for j := range qs {
		out[j] = tops[j].Sorted()
	}
	return out, nil
}

// Stats summarises a collection for the storage experiments.
type Stats struct {
	Name      string
	Count     int
	Dim       int
	IndexKind IndexKind
	// RawBytes is the raw vector storage footprint.
	RawBytes int64
	// IndexBytes is the index's resident estimate.
	IndexBytes int64
}

// Stats returns current statistics.
func (c *Collection) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Stats{
		Name:      c.name,
		Count:     len(c.ids),
		Dim:       c.schema.Dim,
		IndexKind: c.kind,
		RawBytes:  int64(len(c.data))*4 + int64(len(c.ids))*8,
	}
	if c.index != nil {
		if s.IndexBytes = c.indexBytes; s.IndexBytes < 0 {
			s.IndexBytes = c.index.Memory()
		}
	}
	return s
}
