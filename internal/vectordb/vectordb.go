// Package vectordb implements the embedded vector database of Section V —
// the role Milvus plays in the paper's deployment. It manages collections
// of unit-normalised vectors, supports pluggable index builds (IVF-PQ, the
// inverted multi-index, HNSW, and the flat kind — the collection's own
// exact scan, with no index structure at all), top-k inner-product search
// with per-call parameters, usage statistics, and binary snapshot
// persistence. The store a LOVO system runs is a SegmentedCollection: a
// growing segment that takes inserts plus immutable indexed segments.
package vectordb

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/ann"
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
	// M0 and EfConstruction shape the HNSW graph.
	M0, EfConstruction int
	// Seed drives training and level sampling.
	Seed uint64
}

// MaxDim bounds a collection's dimensionality. CreateCollection and
// NewSegmented enforce it, and the snapshot loaders check a decoded dim
// against it before sizing anything from it.
const MaxDim = 1 << 16

// Schema describes a collection.
type Schema struct {
	// Dim is the vector dimensionality, in (0, MaxDim].
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
	ErrIndexed    = errors.New("vectordb: collection is indexed and no longer takes inserts")
)

// Collection is a named set of (id, vector) pairs with an optional index.
// Its rows are the only resident copy of its vectors: the index borrows
// them, and rows are appended only under the write lock and only before a
// build — a built collection is a sealed segment, and Insert refuses it.
type Collection struct {
	name   string
	schema Schema

	mu   sync.RWMutex
	rows *ann.Rows
	// index is nil both before a build and after a flat one: the flat kind
	// answers with the rows' own exact scan. kind ("" until a build) tells
	// the two apart.
	index ann.Index
	kind  IndexKind
	// indexBytes is index.Memory() as recorded when the index was
	// installed — the index never changes afterwards, so Stats is a counter
	// read instead of a walk over every posting list.
	indexBytes int64
}

// DB is a set of collections.
type DB struct {
	mu          sync.Mutex
	collections map[string]*Collection
}

// New returns an empty database.
func New() *DB {
	return &DB{collections: make(map[string]*Collection)}
}

// checkDim rejects a dimensionality outside (0, MaxDim].
func checkDim(dim int) error {
	if dim <= 0 || dim > MaxDim {
		return fmt.Errorf("%w: dim %d outside (0, %d]", ErrDimension, dim, MaxDim)
	}
	return nil
}

// newCollection returns an empty, unregistered collection.
func newCollection(name string, schema Schema) *Collection {
	return &Collection{name: name, schema: schema, rows: ann.NewRows(schema.Dim)}
}

// CreateCollection adds a new collection.
func (db *DB) CreateCollection(name string, schema Schema) (*Collection, error) {
	if err := checkDim(schema.Dim); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.collections[name]; ok {
		return nil, fmt.Errorf("%w: collection %q", ErrExists, name)
	}
	c := newCollection(name, schema)
	db.collections[name] = c
	return c, nil
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of stored vectors.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rows.Len()
}

// Insert stores one vector. A built collection refuses it (ErrIndexed):
// its index covers exactly the rows it was built over.
func (c *Collection) Insert(id int64, v mat.Vec) error {
	if len(v) != c.schema.Dim {
		return fmt.Errorf("%w: %d != %d", ErrDimension, len(v), c.schema.Dim)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kind != "" {
		return fmt.Errorf("%w: %s index over %d vectors", ErrIndexed, c.kind, c.rows.Len())
	}
	row, ok := c.rows.Append(id, v)
	if !ok {
		return fmt.Errorf("%w: %d", ErrDuplicate, id)
	}
	if c.schema.Normalize {
		mat.Normalize(c.rows.Row(row))
	}
	return nil
}

// Scan visits every stored vector in insertion order until fn returns
// false. The visited slice aliases the store — fn must not retain or
// mutate it — and the collection is read-locked for the whole scan, so fn
// must not call back into the collection.
func (c *Collection) Scan(fn func(id int64, v mat.Vec) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := 0; i < c.rows.Len(); i++ {
		if !fn(c.rows.ID(i), c.rows.Row(i)) {
			return
		}
	}
}

// Vector fetches a stored vector by id.
func (c *Collection) Vector(id int64) (mat.Vec, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.rows.Pos(id)
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return mat.Clone(c.rows.Row(i)), nil
}

// constructIndex builds an index over every row without touching any lock
// — the shared core of BuildIndex and BuildIndexSealed. The flat kind
// builds nothing (a nil index): its searches are the rows' exact scan.
func constructIndex(rows *ann.Rows, kind IndexKind, opts IndexOptions) (ann.Index, error) {
	if rows.Len() == 0 {
		return nil, ErrEmptyBuild
	}
	switch kind {
	case IndexFlat:
		return nil, nil
	case IndexIVFPQ:
		return ivfpq.Build(rows, ivfpq.Config{NList: opts.NList, P: opts.P, M: opts.M, Seed: opts.Seed})
	case IndexIMI:
		return imi.Build(rows, imi.Config{P: opts.P, M: opts.M, Seed: opts.Seed})
	case IndexHNSW:
		return hnsw.New(rows, hnsw.Config{M: opts.M0, EfConstruction: opts.EfConstruction, Seed: opts.Seed}), nil
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
	ix, err := constructIndex(c.rows, kind, opts)
	if err != nil {
		return err
	}
	c.installIndex(ix, kind)
	return nil
}

// installIndex swaps in a freshly built index (nil for the flat kind) and
// records its footprint (caller holds the write lock).
func (c *Collection) installIndex(ix ann.Index, kind IndexKind) {
	c.index, c.kind, c.indexBytes = ix, kind, 0
	if ix != nil {
		c.indexBytes = ix.Memory()
	}
}

// BuildIndexSealed constructs the index off-lock: the index reads the rows
// with no lock held (searches keep answering from the exact scan
// throughout), and the finished index is installed under a brief write
// lock. The caller must guarantee no concurrent Insert — the contract a
// sealed, immutable segment satisfies by construction.
func (c *Collection) BuildIndexSealed(kind IndexKind, opts IndexOptions) error {
	ix, err := constructIndex(c.rows, kind, opts)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.installIndex(ix, kind)
	c.mu.Unlock()
	return nil
}

// IndexKind returns the built index kind, or "" when unindexed.
func (c *Collection) IndexKind() IndexKind {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.kind
}

// Search returns the k most similar stored vectors. Unindexed and flat
// collections answer with the exact scan over their rows.
func (c *Collection) Search(q mat.Vec, k int, p ann.Params) ([]mat.Scored, error) {
	if len(q) != c.schema.Dim {
		return nil, fmt.Errorf("%w: query %d != %d", ErrDimension, len(q), c.schema.Dim)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index != nil {
		return c.index.Search(q, k, p), nil
	}
	return c.rows.TopK(q, k), nil
}

// SearchBatch answers many queries under one set of search parameters,
// results aligned with qs and bit-identical to per-query Search calls. An
// unindexed or flat collection, or an exhaustive plan on any kind, is one
// sweep over the rows (ann.Rows.TopKBatch); otherwise the index answers
// each query in turn.
func (c *Collection) SearchBatch(qs []mat.Vec, k int, p ann.Params) ([][]mat.Scored, error) {
	for i, q := range qs {
		if len(q) != c.schema.Dim {
			return nil, fmt.Errorf("%w: batch query %d: %d != %d", ErrDimension, i, len(q), c.schema.Dim)
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index == nil || p.Exhaustive {
		return c.rows.TopKBatch(qs, k), nil
	}
	out := make([][]mat.Scored, len(qs))
	for i, q := range qs {
		out[i] = c.index.Search(q, k, p)
	}
	return out, nil
}

// Stats summarises a collection for the storage experiments.
type Stats struct {
	Name      string
	Count     int
	Dim       int
	IndexKind IndexKind
	// RawBytes is the footprint of the rows — the one resident copy of
	// every vector and id.
	RawBytes int64
	// IndexBytes is the index's own resident estimate (codes, lists,
	// centroids, graph); it never counts the borrowed rows, so it is 0 for
	// the flat kind.
	IndexBytes int64
}

// Stats returns current statistics.
func (c *Collection) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Name:       c.name,
		Count:      c.rows.Len(),
		Dim:        c.schema.Dim,
		IndexKind:  c.kind,
		RawBytes:   c.rows.Bytes(),
		IndexBytes: c.indexBytes,
	}
}
