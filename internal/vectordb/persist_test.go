package vectordb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

// TestSaveLoadBitExact: a Save→Load restart hands back every stored float
// with the same bits — Load appends rows verbatim instead of re-inserting
// (and so re-normalising) them — and therefore the same exhaustive answers.
func TestSaveLoadBitExact(t *testing.T) {
	const n, d = 2000, 32
	db := New()
	c, _ := db.CreateCollection("patches", Schema{Dim: d, Normalize: true})
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < n; i++ {
		v := make(mat.Vec, d)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := c.Insert(int64(i+1), mat.Normalize(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BuildIndex(IndexIMI, IndexOptions{P: 4, M: 16, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := loaded.Collection("patches")
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	c.Scan(func(id int64, v mat.Vec) bool {
		w, err := lc.Vector(id)
		if err != nil {
			t.Fatal(err)
		}
		for j := range v {
			if math.Float32bits(v[j]) != math.Float32bits(w[j]) {
				changed++
				break
			}
		}
		return true
	})
	if changed > 0 {
		t.Fatalf("%d of %d vectors changed bits across Save→Load", changed, n)
	}
	for _, seed := range []uint64{1, 2, 3} {
		q := mat.UnitGaussianVec(d, seed)
		a, _ := c.Search(q, 20, ann.Params{Exhaustive: true})
		b, _ := lc.Search(q, 20, ann.Params{Exhaustive: true})
		sameHits(t, a, b, "exhaustive before vs after Save→Load")
	}
}

// TestLoadRejectsRetiredFormat: version-1 snapshots (with their raw-copy
// flag byte) are refused with an error that says to re-save.
func TestLoadRejectsRetiredFormat(t *testing.T) {
	if _, err := Load(strings.NewReader("LOVODB1\n\x00\x00\x00\x00")); err == nil || !strings.Contains(err.Error(), "re-save") {
		t.Fatalf("v1 database snapshot: %v", err)
	}
	if _, err := LoadSegmented(strings.NewReader("LOVOSG1\n")); err == nil || !strings.Contains(err.Error(), "re-save") {
		t.Fatalf("v1 segmented snapshot: %v", err)
	}
}

// TestLoadRejectsHostileHeaders: a decoded dim outside (0, MaxDim] or an
// index option outside its bound is a clean error before anything is sized
// from it.
func TestLoadRejectsHostileHeaders(t *testing.T) {
	snapshot := func(dim uint32, opt int64) []byte {
		var b bytes.Buffer
		b.WriteString(magic)
		_ = binary.Write(&b, binary.LittleEndian, uint32(1))
		_ = writeString(&b, "x")
		_ = writeString(&b, "imi")
		_ = binary.Write(&b, binary.LittleEndian, &headerFields{Dim: dim, Options: [6]int64{0, opt, 0, 0, 0, 7}})
		_ = binary.Write(&b, binary.LittleEndian, uint64(0))
		return b.Bytes()
	}
	for _, tc := range []struct {
		dim uint32
		opt int64
	}{{0, 4}, {MaxDim + 1, 4}, {math.MaxUint32, 4}, {8, -1}, {8, maxIndexOption + 1}} {
		if _, err := Load(bytes.NewReader(snapshot(tc.dim, tc.opt))); err == nil {
			t.Errorf("dim %d, option %d: loaded", tc.dim, tc.opt)
		}
	}
	if _, err := New().CreateCollection("big", Schema{Dim: MaxDim + 1}); err == nil {
		t.Error("CreateCollection accepted a dim above MaxDim")
	}
	if _, err := NewSegmented("big", Schema{Dim: MaxDim + 1}, IndexIMI, IndexOptions{}, 0); err == nil {
		t.Error("NewSegmented accepted a dim above MaxDim")
	}
}

// fuzzSeeds adds a real snapshot and a spread of its truncations.
func fuzzSeeds(f *testing.F, snap []byte) {
	f.Add(snap)
	for i := 0; i < 24; i++ {
		f.Add(snap[:len(snap)*i/24])
	}
}

// smallVec is a deterministic 8-d test vector.
func smallVec(seed uint64) mat.Vec { return mat.UnitGaussianVec(8, seed) }

// FuzzLoad: any byte stream either loads or errors — never a panic.
func FuzzLoad(f *testing.F) {
	db := New()
	for ki, kind := range []IndexKind{IndexFlat, IndexIVFPQ, IndexIMI, IndexHNSW, ""} {
		c, _ := db.CreateCollection(string(kind)+"-col", Schema{Dim: 8, Normalize: ki%2 == 0})
		for i := 0; i < 24; i++ {
			_ = c.Insert(int64(i+1), smallVec(uint64(ki*100+i)))
		}
		if kind != "" {
			if err := c.BuildIndex(kind, IndexOptions{NList: 4, P: 2, M: 4, Seed: 3}); err != nil {
				f.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f, buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Load(bytes.NewReader(data))
	})
}

// FuzzLoadSegmented: any byte stream either loads or errors — never a
// panic.
func FuzzLoadSegmented(f *testing.F) {
	for _, kind := range []IndexKind{IndexIMI, IndexHNSW} {
		s, err := NewSegmented("seg", Schema{Dim: 8, Normalize: true}, kind, IndexOptions{P: 2, M: 4, Seed: 5}, 10)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 35; i++ {
			_ = s.Insert(int64(i+1), smallVec(uint64(i)))
		}
		if err := s.WaitMaintenance(); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			f.Fatal(err)
		}
		fuzzSeeds(f, buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = LoadSegmented(bytes.NewReader(data))
	})
}
