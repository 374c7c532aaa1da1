package relational

import (
	"errors"
	"sync"
	"testing"
)

func patchSchema() Schema {
	return Schema{
		Columns: []Column{
			{Name: "patch_id", Type: Int64},
			{Name: "video_id", Type: Int64},
			{Name: "frame_idx", Type: Int64},
			{Name: "box_x", Type: Float64},
			{Name: "label", Type: String},
		},
		Key: "patch_id",
	}
}

func newPatchTable(t *testing.T) *Table {
	t.Helper()
	s := NewStore()
	tbl, err := s.CreateTable("patches", patchSchema())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateTableValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable("x", Schema{}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("no columns: %v", err)
	}
	if _, err := s.CreateTable("x", Schema{
		Columns: []Column{{Name: "a", Type: String}}, Key: "a",
	}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("non-int64 key: %v", err)
	}
	if _, err := s.CreateTable("x", Schema{
		Columns: []Column{{Name: "a", Type: Int64}}, Key: "b",
	}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("missing key: %v", err)
	}
	if _, err := s.CreateTable("x", Schema{
		Columns: []Column{{Name: "a", Type: Int64}, {Name: "a", Type: Int64}}, Key: "a",
	}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("duplicate columns: %v", err)
	}
	if _, err := s.CreateTable("ok", patchSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("ok", patchSchema()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate table: %v", err)
	}
	if _, err := s.Table("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
}

func TestInsertAndGet(t *testing.T) {
	tbl := newPatchTable(t)
	row := Row{int64(100), int64(1), int64(5), 0.25, "car"}
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	if got[4].(string) != "car" || got[3].(float64) != 0.25 {
		t.Fatalf("row = %v", got)
	}
	// Returned row is a copy.
	got[4] = "mutated"
	again, _ := tbl.Get(100)
	if again[4].(string) != "car" {
		t.Fatal("Get must return copies")
	}
	if _, err := tbl.Get(999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: %v", err)
	}
}

// TestViewReadsStoredRows: View's lookup sees every inserted row without a
// copy (a join reads many rows under one lock), reports misses, passes
// fn's error through, and leaves the table writable once fn returns.
func TestViewReadsStoredRows(t *testing.T) {
	tbl := newPatchTable(t)
	for i := int64(1); i <= 3; i++ {
		if err := tbl.Insert(Row{i, 10 * i, int64(5), 0.25, "car"}); err != nil {
			t.Fatal(err)
		}
	}
	stop := errors.New("stop")
	err := tbl.View(func(get func(int64) (Row, bool)) error {
		for i := int64(1); i <= 3; i++ {
			row, ok := get(i)
			if !ok || row[1].(int64) != 10*i {
				t.Fatalf("get(%d) = %v, %v", i, row, ok)
			}
		}
		a, _ := get(2)
		b, _ := get(2)
		if &a[0] != &b[0] {
			t.Fatal("View must hand out the stored row, not a copy")
		}
		if _, ok := get(99); ok {
			t.Fatal("get of a missing key reported a row")
		}
		return stop
	})
	if err != stop {
		t.Fatalf("View returned %v, want fn's error", err)
	}
	if err := tbl.Insert(Row{int64(4), int64(40), int64(5), 0.5, "bus"}); err != nil {
		t.Fatalf("insert after View: %v", err)
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := newPatchTable(t)
	if err := tbl.Insert(Row{int64(1)}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("arity: %v", err)
	}
	if err := tbl.Insert(Row{int64(1), int64(1), "five", 0.1, "x"}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("type: %v", err)
	}
	if err := tbl.Insert(Row{1, int64(1), int64(1), 0.1, "x"}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("untyped int: %v", err)
	}
	good := Row{int64(1), int64(1), int64(1), 0.1, "x"}
	if err := tbl.Insert(good); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(good); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestInsertCopiesRow(t *testing.T) {
	tbl := newPatchTable(t)
	row := Row{int64(7), int64(1), int64(2), 0.5, "bus"}
	if err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	row[4] = "mutated"
	got, _ := tbl.Get(7)
	if got[4].(string) != "bus" {
		t.Fatal("Insert must copy the row")
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	tbl := newPatchTable(t)
	for i := int64(0); i < 100; i++ {
		label := "car"
		if i%3 == 0 {
			label = "bus"
		}
		if err := tbl.Insert(Row{i, i % 4, i, float64(i) / 100, label}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("label"); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := tbl.CreateIndex("label"); err != nil {
		t.Fatal(err)
	}
	buses, err := tbl.Lookup("label", "bus")
	if err != nil {
		t.Fatal(err)
	}
	if len(buses) != 34 {
		t.Fatalf("buses = %d", len(buses))
	}
	// Insertion order.
	for i := 1; i < len(buses); i++ {
		if buses[i][0].(int64) <= buses[i-1][0].(int64) {
			t.Fatal("lookup must preserve insertion order")
		}
	}
	// Indexed and unindexed lookups agree.
	cars, _ := tbl.Lookup("label", "car")
	carsScan := tbl.Scan(func(r Row) bool { return r[4].(string) == "car" })
	if len(cars) != len(carsScan) {
		t.Fatalf("index (%d) and scan (%d) disagree", len(cars), len(carsScan))
	}
	if _, err := tbl.Lookup("ghost", "x"); !errors.Is(err, ErrNoColumn) {
		t.Fatalf("bad column: %v", err)
	}
}

func TestIndexUpdatedByLaterInserts(t *testing.T) {
	tbl := newPatchTable(t)
	if err := tbl.CreateIndex("video_id"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(Row{i, i % 2, i, 0.0, "car"}); err != nil {
			t.Fatal(err)
		}
	}
	rows, _ := tbl.Lookup("video_id", int64(1))
	if len(rows) != 5 {
		t.Fatalf("indexed post-insert lookup = %d", len(rows))
	}
}

func TestScanAndLen(t *testing.T) {
	tbl := newPatchTable(t)
	for i := int64(0); i < 20; i++ {
		_ = tbl.Insert(Row{i, int64(0), i, float64(i), "car"})
	}
	if tbl.Len() != 20 {
		t.Fatalf("len = %d", tbl.Len())
	}
	all := tbl.Scan(nil)
	if len(all) != 20 {
		t.Fatalf("scan all = %d", len(all))
	}
	big := tbl.Scan(func(r Row) bool { return r[3].(float64) >= 15 })
	if len(big) != 5 {
		t.Fatalf("filtered scan = %d", len(big))
	}
}

func TestDelete(t *testing.T) {
	tbl := newPatchTable(t)
	_ = tbl.CreateIndex("label")
	for i := int64(0); i < 5; i++ {
		_ = tbl.Insert(Row{i, int64(0), i, 0.0, "car"})
	}
	if err := tbl.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if tbl.Len() != 4 {
		t.Fatalf("len after delete = %d", tbl.Len())
	}
	rows, _ := tbl.Lookup("label", "car")
	if len(rows) != 4 {
		t.Fatalf("index not maintained on delete: %d", len(rows))
	}
	if _, err := tbl.Get(2); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted row still fetchable")
	}
}

func TestStoreNames(t *testing.T) {
	s := NewStore()
	_, _ = s.CreateTable("zeta", patchSchema())
	_, _ = s.CreateTable("alpha", patchSchema())
	names := s.Names()
	if len(names) != 2 || names[0] != "alpha" {
		t.Fatalf("names = %v", names)
	}
}

func TestColTypeString(t *testing.T) {
	if Int64.String() != "int64" || Float64.String() != "float64" || String.String() != "string" {
		t.Fatal("type names")
	}
	if ColType(9).String() == "" {
		t.Fatal("unknown type should format")
	}
}

func TestConcurrentAccess(t *testing.T) {
	tbl := newPatchTable(t)
	_ = tbl.CreateIndex("video_id")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tbl.Insert(Row{int64(g*1000 + i), int64(g), int64(i), 0.0, "car"})
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, _ = tbl.Lookup("video_id", int64(g))
				_, _ = tbl.Get(int64(g*1000 + i/2))
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 400 {
		t.Fatalf("len = %d", tbl.Len())
	}
}
