package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datasets"
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

func TestSystemSnapshotErrors(t *testing.T) {
	// A snapshot's store layout must match the restoring system: the two
	// layouts answer approximate queries from differently seeded indexes.
	s, err := New(Config{Seed: 1, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf); err != nil {
		t.Fatalf("streaming save: %v", err)
	}
	mono, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mono.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("streaming snapshot into a monolithic system must error")
	}
	buf.Reset()
	monoSrc, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := monoSrc.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	stream, err := New(Config{Seed: 1, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("monolithic snapshot into a streaming system must error")
	}
	buf.Reset()

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
