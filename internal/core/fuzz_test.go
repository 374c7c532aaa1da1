package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/datasets"
)

// snapshotFuzzConfigs are the two store layouts a snapshot restores into:
// monolithic, and streaming with a segment size small enough that a tiny
// corpus leaves sealed segments and a growing one.
var snapshotFuzzConfigs = []Config{{Seed: 1}, {Seed: 1, SegmentSize: 24}}

// hostileSnapshotHeader is a valid magic followed by a metadata length of
// 1 GiB in front of a 5-byte body.
func hostileSnapshotHeader() []byte {
	b := append([]byte(snapMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(b[len(snapMagic):], 1<<30)
	return append(b, 1, 2, 3, 4, 5)
}

// tinySnapshot saves a one-video system of the given layout.
func tinySnapshot(tb testing.TB, cfg Config) []byte {
	tb.Helper()
	ds := datasets.Bellevue(datasets.Config{Seed: 1, Scale: 0.002})
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range ds.Videos {
		if err := s.Ingest(&ds.Videos[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.BuildIndex(); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadSnapshot: any byte stream restored into a fresh system of either
// layout either loads or errors — never a panic.
func FuzzLoadSnapshot(f *testing.F) {
	for _, cfg := range snapshotFuzzConfigs {
		snap := tinySnapshot(f, cfg)
		f.Add(snap)
		for i := 0; i < 16; i++ {
			f.Add(snap[:len(snap)*i/16])
		}
	}
	f.Add(hostileSnapshotHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range snapshotFuzzConfigs {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_ = s.LoadSnapshot(bytes.NewReader(data))
		}
	})
}
