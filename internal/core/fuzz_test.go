package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/datasets"
)

// snapshotFuzzConfigs are the two seal thresholds a snapshot restores
// into: 0, one segment under one index, and a segment size small enough
// that a tiny corpus leaves sealed segments and a growing one.
var snapshotFuzzConfigs = []Config{{Seed: 1}, {Seed: 1, SegmentSize: 24}}

// hostileSnapshotHeader is a valid magic followed by a metadata length of
// 1 GiB in front of a 5-byte body.
func hostileSnapshotHeader() []byte {
	b := append([]byte(snapMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(b[len(snapMagic):], 1<<30)
	return append(b, 1, 2, 3, 4, 5)
}

// tinySnapshot saves a one-video system of the given seal threshold, after
// ingesting the video again under another ID past the build when
// postBuild is set.
func tinySnapshot(tb testing.TB, cfg Config, postBuild bool) []byte {
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
	if postBuild {
		v := ds.Videos[0]
		v.ID = 9
		if err := s.Ingest(&v); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadSnapshot: any byte stream restored into a fresh system of either
// seal threshold either loads or errors — never a panic.
func FuzzLoadSnapshot(f *testing.F) {
	for _, cfg := range snapshotFuzzConfigs {
		snap := tinySnapshot(f, cfg, false)
		f.Add(snap)
		for i := 0; i < 16; i++ {
			f.Add(snap[:len(snap)*i/16])
		}
	}
	f.Add(hostileSnapshotHeader())
	// Threshold 0 with post-build ingest: one sealed segment and a growing one.
	f.Add(tinySnapshot(f, snapshotFuzzConfigs[0], true))
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
