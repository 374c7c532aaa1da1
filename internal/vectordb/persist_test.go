package vectordb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

// TestSaveLoadBitExact: a Save→Load restart hands back every stored float
// with the same bits — LoadSegmented appends rows verbatim instead of
// re-inserting (and so re-normalising) them — and therefore the same
// exhaustive answers.
func TestSaveLoadBitExact(t *testing.T) {
	const n, d = 2000, 32
	s, err := NewSegmented("patches", Schema{Dim: d, Normalize: true}, IndexIMI, IndexOptions{P: 4, M: 16, Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < n; i++ {
		v := make(mat.Vec, d)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := s.Insert(int64(i+1), mat.Normalize(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSegmented(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(c *SegmentedCollection) (out []uint64) {
		c.Scan(func(id int64, v mat.Vec) bool {
			out = append(out, uint64(id))
			for _, f := range v {
				out = append(out, uint64(math.Float32bits(f)))
			}
			return true
		})
		return out
	}
	if !slices.Equal(bits(loaded), bits(s)) {
		t.Fatal("stored ids or vector bits changed across Save→Load")
	}
	for _, seed := range []uint64{1, 2, 3} {
		q := mat.UnitGaussianVec(d, seed)
		a, _ := s.Search(q, 20, ann.Params{Exhaustive: true})
		b, _ := loaded.Search(q, 20, ann.Params{Exhaustive: true})
		sameHits(t, a, b, "exhaustive before vs after Save→Load")
	}
}

// TestLoadRejectsRetiredFormat: retired layouts — the database layout of
// unsegmented collections, LOVOSG1 with its raw-copy flag byte, LOVOSG2
// with its compaction fan-in word — are refused with an error that says to
// re-save.
func TestLoadRejectsRetiredFormat(t *testing.T) {
	for _, retired := range []string{"LOVODB1\n\x00\x00\x00\x00", "LOVODB2\n\x01\x00\x00\x00", "LOVOSG1\n", "LOVOSG2\n"} {
		if _, err := LoadSegmented(strings.NewReader(retired)); err == nil || !strings.Contains(err.Error(), "re-save") {
			t.Fatalf("retired segmented snapshot %q: %v", retired, err)
		}
	}
}

// TestLoadRejectsHostileHeaders: a decoded dim outside (0, MaxDim] or an
// index option outside its bound is a clean error before anything is sized
// from it.
func TestLoadRejectsHostileHeaders(t *testing.T) {
	snapshot := func(dim uint32, opt int64) []byte {
		var b bytes.Buffer
		b.WriteString(segMagic)
		_ = writeString(&b, "x")
		_ = writeString(&b, "imi")
		_ = binary.Write(&b, binary.LittleEndian, &headerFields{Dim: dim, Options: [6]int64{0, opt, 0, 0, 0, 7}})
		_ = binary.Write(&b, binary.LittleEndian, [2]int64{0, 1})
		_ = binary.Write(&b, binary.LittleEndian, uint32(0))
		_ = binary.Write(&b, binary.LittleEndian, uint64(0))
		return b.Bytes()
	}
	for _, tc := range []struct {
		dim uint32
		opt int64
	}{{0, 4}, {MaxDim + 1, 4}, {math.MaxUint32, 4}, {8, -1}, {8, maxIndexOption + 1}} {
		if _, err := LoadSegmented(bytes.NewReader(snapshot(tc.dim, tc.opt))); err == nil {
			t.Errorf("dim %d, option %d: loaded", tc.dim, tc.opt)
		}
	}
	if _, err := New().CreateCollection("big", Schema{Dim: MaxDim + 1}); err == nil {
		t.Error("CreateCollection accepted a dim above MaxDim")
	}
	if _, err := NewSegmented("big", Schema{Dim: MaxDim + 1}, IndexIMI, IndexOptions{}, 0); err == nil {
		t.Error("NewSegmented accepted a dim above MaxDim")
	}
	if _, err := LoadSegmented(bytes.NewReader(snapshot(8, 4))); err != nil {
		t.Errorf("the well-formed control snapshot: %v", err)
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

// FuzzLoad: any byte stream either loads or errors — never a panic. Seeds
// are batch stores (seal threshold 0) of every index kind plus one never
// built: one base-seeded segment, then post-build inserts in the growing
// segment.
func FuzzLoad(f *testing.F) {
	for ki, kind := range []IndexKind{IndexFlat, IndexIVFPQ, IndexIMI, IndexHNSW, ""} {
		build := kind != ""
		if !build {
			kind = IndexIMI
		}
		s, err := NewSegmented("batch", Schema{Dim: 8, Normalize: ki%2 == 0}, kind, IndexOptions{NList: 4, P: 2, M: 4, Seed: 3}, 0)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 35; i++ {
			if i == 24 && build {
				if err := s.Seal(); err != nil {
					f.Fatal(err)
				}
			}
			_ = s.Insert(int64(i+1), smallVec(uint64(ki*100+i)))
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

// FuzzLoadSegmented: any byte stream either loads or errors — never a
// panic. Seeds cover sized seal thresholds; FuzzLoad covers threshold 0.
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
