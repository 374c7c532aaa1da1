package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/vectordb"
	"repro/internal/video"
)

func TestSystemSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Seed: 17}
	ds := datasets.Bellevue(datasets.Config{Seed: 17, Scale: 0.05})
	orig := buildSystem(t, ds, cfg)

	var buf bytes.Buffer
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Entities() != orig.Entities() {
		t.Fatalf("entities %d != %d", restored.Entities(), orig.Entities())
	}
	if !restored.Built() {
		t.Fatal("restored system must report built")
	}
	if restored.Stats() != orig.Stats() {
		t.Fatalf("stats %+v != %+v", restored.Stats(), orig.Stats())
	}

	// Every benchmark query answers byte-identically — vectors, metadata
	// join and keyframes all survived the round trip.
	for _, q := range ds.Queries {
		want, err := Query(context.Background(), orig, q.Text, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Query(context.Background(), restored, q.Text, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%s: restored system answers diverge\n got: %+v\nwant: %+v", q.ID, got.Objects, want.Objects)
		}
	}

	// The restored system keeps working: more footage, rebuild, query.
	extra := datasets.Bellevue(datasets.Config{Seed: 18, Scale: 0.03})
	v := extra.Videos[0]
	v.ID = 7
	if err := restored.Ingest(&v); err != nil {
		t.Fatal(err)
	}
	if err := restored.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := Query(context.Background(), restored, ds.Queries[0].Text, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingSnapshotRoundTrip pins the streaming save/load path the
// monolithic round trip cannot cover: a snapshot taken mid-stream (sealed
// segments plus a non-empty growing segment) restores a system that
// answers byte-identically and keeps streaming.
func TestStreamingSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Seed: 17, SegmentSize: 400}
	ds := datasets.Bellevue(datasets.Config{Seed: 17, Scale: 0.05})
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := orig.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Keep streaming past the build so the snapshot catches a growing
	// segment mid-stream.
	extra := datasets.Bellevue(datasets.Config{Seed: 18, Scale: 0.03})
	v := extra.Videos[0]
	v.ID = 7
	if err := orig.Ingest(&v); err != nil {
		t.Fatal(err)
	}
	if st, ok := orig.SegmentStats(); !ok || st.Sealed == 0 {
		t.Fatalf("expected sealed segments before save, got %+v", st)
	}

	var buf bytes.Buffer
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// LoadSnapshot swaps the store under the system lock while a reader
	// polls Segmented(): the accessor must take that lock (-race asserts).
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				_ = restored.Segmented()
			}
		}
	}()
	err = restored.LoadSnapshot(&buf)
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	if restored.Entities() != orig.Entities() {
		t.Fatalf("entities %d != %d", restored.Entities(), orig.Entities())
	}
	if st, ok := restored.SegmentStats(); !ok || st.Sealed == 0 || st.GrowingLen == 0 {
		t.Fatalf("restored segment stats = %+v", st)
	}
	for _, q := range ds.Queries {
		want, err := Query(context.Background(), orig, q.Text, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Query(context.Background(), restored, q.Text, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%s: restored streaming system answers diverge\n got: %+v\nwant: %+v", q.ID, got.Objects, want.Objects)
		}
	}
	// The restored system keeps streaming: more footage seals more
	// segments without a full rebuild.
	v2 := extra.Videos[len(extra.Videos)-1]
	v2.ID = 8
	if err := restored.Ingest(&v2); err != nil {
		t.Fatal(err)
	}
	if err := restored.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := Query(context.Background(), restored, ds.Queries[0].Text, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotRefusesRecipeMismatch: a snapshot restores only into a
// system whose resolved index kind, index options and seal threshold match
// the saver's, and the error names both values — accepted, the system
// reported (and planned for) one index while serving another.
func TestLoadSnapshotRefusesRecipeMismatch(t *testing.T) {
	snap := tinySnapshot(t, Config{Seed: 1, SegmentSize: 24}, false)
	for _, tc := range []struct {
		cfg        Config
		want, have string
	}{
		{Config{Seed: 1, SegmentSize: 24, Index: vectordb.IndexHNSW}, `"imi"`, `"hnsw"`},
		{Config{Seed: 1, SegmentSize: 24, IndexOptions: vectordb.IndexOptions{M: 32}}, "M:64", "M:32"},
		{Config{Seed: 1, SegmentSize: 48}, "24", "48"},
		{Config{Seed: 1}, "24", "0"},
	} {
		s, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = s.LoadSnapshot(bytes.NewReader(snap))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), tc.have) {
			t.Fatalf("%+v: want an error naming %s and %s, got %v", tc.cfg, tc.want, tc.have, err)
		}
		if s.Entities() != 0 {
			t.Fatalf("%+v: a refused snapshot left %d vectors behind", tc.cfg, s.Entities())
		}
	}
}

// TestLoadSnapshotRefusesBatchLayout: a snapshot of a SegmentSize 0 system
// written before every store was segmented — the system metadata followed
// by the retired LOVODB2 database layout — is refused with an error that
// asks for a re-save.
func TestLoadSnapshotRefusesBatchLayout(t *testing.T) {
	// The older metadata carried a Streaming flag, false for this layout.
	type olderMeta struct {
		ProjDim   int
		Rows      []patchRow
		Keyframes []snapKeyframe
		Stats     IngestStats
		Built     bool
		Streaming bool
	}
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(&olderMeta{ProjDim: 32, Built: true}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	snap.WriteString(snapMagic)
	_ = binary.Write(&snap, binary.LittleEndian, uint64(meta.Len()))
	snap.Write(meta.Bytes())
	snap.WriteString("LOVODB2\n")
	_ = binary.Write(&snap, binary.LittleEndian, uint32(1))
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSnapshot(&snap); err == nil || !strings.Contains(err.Error(), "re-save") {
		t.Fatalf("a batch-layout snapshot: want a re-save error, got %v", err)
	}
}

func TestSystemSnapshotErrors(t *testing.T) {
	var buf bytes.Buffer
	// Bad magic.
	m, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadSnapshot(bytes.NewReader([]byte("NOTASNAP\n"))); err == nil {
		t.Fatal("bad magic must error")
	}

	// Dimension mismatch.
	ds := datasets.Bellevue(datasets.Config{Seed: 1, Scale: 0.03})
	orig := buildSystem(t, ds, Config{Seed: 1})
	buf.Reset()
	if err := orig.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	wrong, err := New(Config{Seed: 1, ProjDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	// Metadata that agrees with the system in front of a vector stream
	// that does not: D'=32 metadata spliced onto a D'=16 vector stream.
	for _, segSize := range []int{0, 4096} {
		saved := func(projDim int) []byte {
			s, err := New(Config{Seed: 1, ProjDim: projDim, SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := s.SaveSnapshot(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		metaEnd := func(snap []byte) int {
			return len(snapMagic) + 8 + int(binary.LittleEndian.Uint64(snap[len(snapMagic):]))
		}
		a, b := saved(32), saved(16)
		spliced := append(append([]byte(nil), a[:metaEnd(a)]...), b[metaEnd(b):]...)
		target, err := New(Config{Seed: 1, SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := target.LoadSnapshot(bytes.NewReader(spliced)); err == nil {
			t.Fatalf("SegmentSize=%d: a vector stream of another dim must error", segSize)
		}
	}

	// Non-empty target.
	full := buildSystem(t, ds, Config{Seed: 1})
	if err := full.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading into a non-empty system must error")
	}
}

// TestSnapshotMetadataLengthCostsOnlyItsBytes: a metadata length declaring
// 1 GiB in front of a 5-byte body fails without reserving the declared
// size — the section grows only as its bytes arrive.
func TestSnapshotMetadataLengthCostsOnlyItsBytes(t *testing.T) {
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.LoadSnapshot(bytes.NewReader(hostileSnapshotHeader()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a metadata length past the stream's end must error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 5-byte metadata body allocated %d bytes", grew)
	}
}

// fixtureVideos is the corpus behind testdata/parent-bellevue.snap: two
// short Bellevue clips (seeds 29 and 30, scale 0.01) as videos 0 and 1.
func fixtureVideos() []video.Video {
	var vs []video.Video
	for i, seed := range []uint64{29, 30} {
		v := datasets.Bellevue(datasets.Config{Seed: seed, Scale: 0.01}).Videos[0]
		v.ID = i
		for j := range v.Frames {
			v.Frames[j].VideoID = i
		}
		vs = append(vs, v)
	}
	return vs
}

// TestCommittedSnapshotAnswersLikeFreshTwin pins the LOVOSYS1 format: a
// snapshot written by an earlier build (Config{Seed: 29} over
// fixtureVideos, then BuildIndex) still loads, and a pinned exhaustive plan
// answers byte-identically to a system that ingests the same videos now.
func TestCommittedSnapshotAnswersLikeFreshTwin(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent-bellevue.snap")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 29}
	loaded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	twin, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := fixtureVideos()
	for i := range vs {
		if err := twin.Ingest(&vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if loaded.Entities() != twin.Entities() || loaded.Entities() == 0 {
		t.Fatalf("entities: loaded %d, twin %d", loaded.Entities(), twin.Entities())
	}
	ls, ts := loaded.Stats(), twin.Stats()
	ls.Processing, ls.Indexing, ts.Processing, ts.Indexing = 0, 0, 0, 0
	if ls != ts {
		t.Fatalf("stats: loaded %+v, twin %+v", ls, ts)
	}
	if !reflect.DeepEqual(loaded.patches.sorted(), twin.patches.sorted()) {
		t.Fatal("patch rows differ")
	}

	var texts []string
	for _, q := range datasets.Bellevue(datasets.Config{Seed: 29, Scale: 0.01}).Queries {
		texts = append(texts, q.Text)
	}
	plans := make([]Plan, len(texts))
	for i := range plans {
		plans[i] = Plan{Exact: true}
	}
	answer := func(s *System) []byte {
		res, err := ExecutePlanBatch(context.Background(), s.Target(), s.Config(), texts, plans, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		for _, r := range res {
			if err := json.NewEncoder(&out).Encode(r.Objects); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	got, want := answer(loaded), answer(twin)
	if !bytes.Equal(got, want) {
		t.Fatalf("loaded snapshot answers differ from its fresh twin\n got: %s\nwant: %s", got, want)
	}
	if !bytes.Contains(want, []byte(`"PatchID"`)) {
		t.Fatalf("no query found any object: %s", want)
	}
}
