// Package relational implements the embedded relational store of
// Section V-B: supplementary metadata — key-frame identifiers, bounding-box
// coordinates, patch indexes — lives in typed tables keyed by patch ID, and
// query results from the vector database join against it to recover frame
// context.
//
// The store offers typed columns, a mandatory int64 primary key, optional
// secondary hash indexes, point lookups, predicate scans and ordered
// iteration. It is deliberately an embedded library (not a server): the
// paper links Milvus to its relational side-store through the shared patch
// ID, and this package plays that role in-process.
package relational

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ColType enumerates supported column types.
type ColType int

// Supported column types.
const (
	Int64 ColType = iota
	Float64
	String
)

// String returns the type name.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table: its columns and which column is the int64
// primary key.
type Schema struct {
	Columns []Column
	// Key names the primary-key column, which must exist and be Int64.
	Key string
}

// Row is one record; values align with the table's columns.
type Row []any

// Errors returned by the store.
var (
	ErrNoTable      = errors.New("relational: no such table")
	ErrTableExists  = errors.New("relational: table exists")
	ErrNoColumn     = errors.New("relational: no such column")
	ErrBadSchema    = errors.New("relational: bad schema")
	ErrTypeMismatch = errors.New("relational: type mismatch")
	ErrDuplicateKey = errors.New("relational: duplicate primary key")
	ErrNotFound     = errors.New("relational: not found")
)

// Table is one relation.
type Table struct {
	name   string
	schema Schema
	keyIdx int

	mu        sync.RWMutex
	rows      map[int64]Row
	order     []int64                 // insertion order of primary keys
	secondary map[int]map[any][]int64 // column index -> value -> keys
}

// Store is a set of tables.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tables: make(map[string]*Table)} }

// CreateTable adds a table with the given schema.
func (s *Store) CreateTable(name string, schema Schema) (*Table, error) {
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("%w: no columns", ErrBadSchema)
	}
	keyIdx := -1
	seen := map[string]bool{}
	for i, c := range schema.Columns {
		if c.Name == "" || seen[c.Name] {
			return nil, fmt.Errorf("%w: bad column name %q", ErrBadSchema, c.Name)
		}
		seen[c.Name] = true
		if c.Name == schema.Key {
			if c.Type != Int64 {
				return nil, fmt.Errorf("%w: key %q must be int64", ErrBadSchema, c.Name)
			}
			keyIdx = i
		}
	}
	if keyIdx < 0 {
		return nil, fmt.Errorf("%w: key column %q missing", ErrBadSchema, schema.Key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	t := &Table{
		name:      name,
		schema:    schema,
		keyIdx:    keyIdx,
		rows:      make(map[int64]Row),
		secondary: make(map[int]map[any][]int64),
	}
	s.tables[name] = t
	return t, nil
}

// Table fetches a table by name.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Names lists table names sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// ColumnIndex resolves a column name.
func (t *Table) ColumnIndex(name string) (int, error) {
	for i, c := range t.schema.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %q", ErrNoColumn, name)
}

// checkRow validates a row against the schema.
func (t *Table) checkRow(row Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrTypeMismatch, len(row), len(t.schema.Columns))
	}
	for i, c := range t.schema.Columns {
		switch c.Type {
		case Int64:
			if _, ok := row[i].(int64); !ok {
				return fmt.Errorf("%w: column %q wants int64, got %T", ErrTypeMismatch, c.Name, row[i])
			}
		case Float64:
			if _, ok := row[i].(float64); !ok {
				return fmt.Errorf("%w: column %q wants float64, got %T", ErrTypeMismatch, c.Name, row[i])
			}
		case String:
			if _, ok := row[i].(string); !ok {
				return fmt.Errorf("%w: column %q wants string, got %T", ErrTypeMismatch, c.Name, row[i])
			}
		}
	}
	return nil
}

// Insert adds a row.
func (t *Table) Insert(row Row) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	key := row[t.keyIdx].(int64)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.rows[key]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateKey, key)
	}
	stored := make(Row, len(row))
	copy(stored, row)
	t.rows[key] = stored
	t.order = append(t.order, key)
	for col, idx := range t.secondary {
		v := stored[col]
		idx[v] = append(idx[v], key)
	}
	return nil
}

// Get fetches a row by primary key. The returned row is a copy.
func (t *Table) Get(key int64) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: key %d", ErrNotFound, key)
	}
	out := make(Row, len(row))
	copy(out, row)
	return out, nil
}

// View runs fn under one read lock, handing it get: a point lookup that
// returns the stored row itself rather than a copy, for joins that read many
// rows at once. Rows from get are valid only until fn returns and must not
// be modified; fn must not call back into the table's writers.
func (t *Table) View(fn func(get func(key int64) (Row, bool)) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return fn(t.stored)
}

// stored is View's lookup; the caller holds the read lock.
func (t *Table) stored(key int64) (Row, bool) {
	row, ok := t.rows[key]
	return row, ok
}

// CreateIndex builds a secondary hash index on a column; existing rows are
// indexed immediately.
func (t *Table) CreateIndex(column string) error {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.secondary[ci]; ok {
		return nil // idempotent
	}
	idx := make(map[any][]int64)
	for _, key := range t.order {
		v := t.rows[key][ci]
		idx[v] = append(idx[v], key)
	}
	t.secondary[ci] = idx
	return nil
}

// Lookup returns copies of all rows whose column equals value, using the
// secondary index when present and a scan otherwise. Rows come back in
// insertion order.
func (t *Table) Lookup(column string, value any) ([]Row, error) {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var keys []int64
	if idx, ok := t.secondary[ci]; ok {
		keys = idx[value]
	} else {
		for _, key := range t.order {
			if t.rows[key][ci] == value {
				keys = append(keys, key)
			}
		}
	}
	out := make([]Row, 0, len(keys))
	for _, key := range keys {
		row := t.rows[key]
		cp := make(Row, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
	return out, nil
}

// Scan returns copies of all rows satisfying pred, in insertion order. A
// nil pred selects everything.
func (t *Table) Scan(pred func(Row) bool) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []Row
	for _, key := range t.order {
		row := t.rows[key]
		if pred == nil || pred(row) {
			cp := make(Row, len(row))
			copy(cp, row)
			out = append(out, cp)
		}
	}
	return out
}

// Delete removes a row by primary key.
func (t *Table) Delete(key int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, ok := t.rows[key]
	if !ok {
		return fmt.Errorf("%w: key %d", ErrNotFound, key)
	}
	delete(t.rows, key)
	for i, k := range t.order {
		if k == key {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
	for col, idx := range t.secondary {
		v := row[col]
		keys := idx[v]
		for i, k := range keys {
			if k == key {
				idx[v] = append(keys[:i], keys[i+1:]...)
				break
			}
		}
		if len(idx[v]) == 0 {
			delete(idx, v)
		}
	}
	return nil
}
