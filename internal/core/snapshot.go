package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/mat"
	"repro/internal/relational"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// System snapshot format: the vectordb snapshot already persists every
// patch vector plus the index recipe, but a query also needs the
// relational side-store (the metadata join) and the retained keyframes
// (the rerank's image storage). A system snapshot therefore wraps all
// three:
//
//	magic "LOVOSYS1\n"
//	uint64 metadata length, then gob(snapMeta):
//	                     relational rows, keyframes, stats, built flag,
//	                     streaming flag
//	vector snapshot      monolithic: the vectordb DB snapshot;
//	                     streaming: the segmented-collection snapshot
//	                     (per-segment vectors + identities, indexes rebuilt
//	                     on load from identity-derived seeds)
//
// The gob section is length-prefixed because gob wraps non-ByteReader
// streams in a buffered reader that consumes past the value's end — the
// vector section that follows must start at an exact offset.
//
// A snapshot's streaming-ness must match the restoring system's Config:
// the two store layouts answer approximate queries from differently
// seeded indexes, so silently crossing modes would break the restart
// bit-identity contract.
const snapMagic = "LOVOSYS1\n"

type snapRow struct {
	PatchID, VideoID, FrameIdx, Patch int64
	X, Y, W, H, Objectness            float64
}

type snapKeyframe struct {
	VideoID, FrameIdx int
	Frame             video.Frame
}

type snapMeta struct {
	ProjDim   int
	Rows      []snapRow
	Keyframes []snapKeyframe
	Stats     IngestStats
	Built     bool
	Streaming bool
}

// SaveSnapshot persists the full system state — patch vectors, relational
// metadata, keyframes, stats — so a later LoadSnapshot serves queries
// without re-running Video Summary. Must not run concurrently with Ingest
// or BuildIndex (concurrent queries are fine).
func (s *System) SaveSnapshot(w io.Writer) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	meta := snapMeta{ProjDim: s.cfg.ProjDim, Streaming: s.seg != nil}
	for _, row := range s.patches.Scan(func(relational.Row) bool { return true }) {
		meta.Rows = append(meta.Rows, snapRow{
			PatchID: row[0].(int64), VideoID: row[1].(int64),
			FrameIdx: row[2].(int64), Patch: row[3].(int64),
			X: row[4].(float64), Y: row[5].(float64),
			W: row[6].(float64), H: row[7].(float64),
			Objectness: row[8].(float64),
		})
	}
	sort.Slice(meta.Rows, func(i, j int) bool { return meta.Rows[i].PatchID < meta.Rows[j].PatchID })
	s.mu.RLock()
	for k, f := range s.keyframes {
		meta.Keyframes = append(meta.Keyframes, snapKeyframe{VideoID: k.video, FrameIdx: k.frame, Frame: *f})
	}
	meta.Stats = s.stats
	meta.Built = s.built
	s.mu.RUnlock()
	sort.Slice(meta.Keyframes, func(i, j int) bool {
		if meta.Keyframes[i].VideoID != meta.Keyframes[j].VideoID {
			return meta.Keyframes[i].VideoID < meta.Keyframes[j].VideoID
		}
		return meta.Keyframes[i].FrameIdx < meta.Keyframes[j].FrameIdx
	})
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&meta); err != nil {
		return fmt.Errorf("core: encoding snapshot metadata: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(mbuf.Len())); err != nil {
		return err
	}
	if _, err := w.Write(mbuf.Bytes()); err != nil {
		return err
	}
	if s.seg != nil {
		return s.seg.Save(w)
	}
	return s.db.Save(w)
}

// LoadSnapshot restores a snapshot written by SaveSnapshot into this
// freshly-constructed, empty system. The system must have been built with
// the same Config (seed, dimensions) as the saver — encoders are seeded,
// so a mismatched seed would embed queries into a different space than the
// stored vectors. The index is rebuilt from the recorded kind and options.
func (s *System) LoadSnapshot(r io.Reader) error {
	if s.Entities() > 0 {
		return fmt.Errorf("core: LoadSnapshot requires an empty system (%d vectors present)", s.Entities())
	}
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(head) != snapMagic {
		return fmt.Errorf("core: bad snapshot magic %q", head)
	}
	var mlen uint64
	if err := binary.Read(r, binary.LittleEndian, &mlen); err != nil {
		return fmt.Errorf("core: reading snapshot metadata length: %w", err)
	}
	// A corrupted or truncated stream must fail cleanly, not drive an
	// allocation from a garbage length.
	const maxSnapMeta = 1 << 31
	if mlen > maxSnapMeta {
		return fmt.Errorf("core: snapshot metadata length %d exceeds the %d-byte bound (corrupt snapshot?)", mlen, maxSnapMeta)
	}
	mraw := make([]byte, mlen)
	if _, err := io.ReadFull(r, mraw); err != nil {
		return fmt.Errorf("core: reading snapshot metadata: %w", err)
	}
	var meta snapMeta
	if err := gob.NewDecoder(bytes.NewReader(mraw)).Decode(&meta); err != nil {
		return fmt.Errorf("core: decoding snapshot metadata: %w", err)
	}
	if meta.ProjDim != s.cfg.ProjDim {
		return fmt.Errorf("core: snapshot dimension D'=%d, system configured with %d", meta.ProjDim, s.cfg.ProjDim)
	}
	if meta.Streaming != (s.seg != nil) {
		mode := func(streaming bool) string {
			if streaming {
				return "streaming"
			}
			return "monolithic"
		}
		return fmt.Errorf("core: %s snapshot cannot restore into a %s system (set Config.Streaming to match the saver)",
			mode(meta.Streaming), mode(s.seg != nil))
	}
	var (
		db  *vectordb.DB
		col *vectordb.Collection
		seg *vectordb.SegmentedCollection
		err error
	)
	if meta.Streaming {
		seg, err = vectordb.LoadSegmented(r)
		if err != nil {
			return fmt.Errorf("core: loading segmented vector snapshot: %w", err)
		}
	} else {
		db, err = vectordb.Load(r)
		if err != nil {
			return fmt.Errorf("core: loading vector snapshot: %w", err)
		}
		col, err = db.Collection("patches")
		if err != nil {
			return fmt.Errorf("core: vector snapshot misses the patches collection: %w", err)
		}
	}
	// The metadata's D' was checked above; the vector stream carries its
	// own dim, and a stream that disagrees would score queries against
	// vectors of the wrong shape.
	var dim int
	if meta.Streaming {
		dim = seg.Stats().Dim
	} else {
		dim = col.Schema().Dim
	}
	if dim != meta.ProjDim {
		return fmt.Errorf("core: vector snapshot dimension %d, snapshot metadata says D'=%d (corrupt snapshot?)", dim, meta.ProjDim)
	}
	for _, row := range meta.Rows {
		err := s.patches.Insert(relational.Row{
			row.PatchID, row.VideoID, row.FrameIdx, row.Patch,
			row.X, row.Y, row.W, row.H, row.Objectness,
		})
		if err != nil {
			return fmt.Errorf("core: restoring patch metadata: %w", err)
		}
	}
	s.mu.Lock()
	for _, kf := range meta.Keyframes {
		f := kf.Frame
		s.keyframes[frameKey{kf.VideoID, kf.FrameIdx}] = &f
	}
	s.stats = meta.Stats
	s.built = meta.Built
	if meta.Streaming {
		s.seg = seg
	} else {
		s.db = db
		s.col = col
	}
	s.mu.Unlock()
	// Rebuild the planner's selectivity state from the restored corpus:
	// keyframes re-feed the posting statistics in their canonical (video,
	// frame) snapshot order and the vector scan re-feeds the
	// score-distribution sketch in insertion order, so a loaded system
	// plans like the one that saved it. Calibration stays lazy.
	s.planner.reset()
	for _, kf := range meta.Keyframes {
		f := kf.Frame
		s.planner.noteFrame(&f)
	}
	scan := func(fn func(id int64, v mat.Vec) bool) {
		if meta.Streaming {
			seg.Scan(fn)
		} else {
			col.Scan(fn)
		}
	}
	scan(func(id int64, v mat.Vec) bool {
		s.planner.observe(v)
		return true
	})
	s.ingestGen.Add(1)
	return nil
}
