package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"repro/internal/vectordb"
	"repro/internal/video"
)

// System snapshot format: the vector store's snapshot persists every patch
// vector plus the index recipe, but a query also needs the patch table
// (the metadata join) and the retained keyframes (the rerank's
// image storage). A system snapshot therefore wraps all three:
//
//	magic "LOVOSYS1\n"
//	uint64 metadata length, then gob(snapMeta):
//	                     patch rows, keyframes, stats, built flag
//	vector snapshot      the store's LOVOSG3 snapshot (per-segment vectors
//	                     and identities, indexes rebuilt on load under the
//	                     store's seed rule)
//
// The gob section is length-prefixed because gob wraps non-ByteReader
// streams in a buffered reader that consumes past the value's end — the
// vector section that follows must start at an exact offset.
//
// The store's recipe — index kind, index options, seal threshold — must
// match the restoring system's resolved Config: a mismatched recipe would
// serve a different index than the one Config reports, or seal on a
// different schedule than the saver's twin. A snapshot whose vector section
// is the retired database layout (LOVODB2, written for SegmentSize 0 before
// every store was segmented) is refused with an error asking for a re-save.
const snapMagic = "LOVOSYS1\n"

type snapKeyframe struct {
	VideoID, FrameIdx int
	Frame             video.Frame
}

type snapMeta struct {
	ProjDim   int
	Rows      []patchRow // ascending PatchID
	Keyframes []snapKeyframe
	Stats     IngestStats
	Built     bool
}

// SaveSnapshot persists the full system state — patch vectors, patch
// metadata, keyframes, stats — so a later LoadSnapshot serves queries
// without re-running Video Summary. Must not run concurrently with Ingest
// or BuildIndex (concurrent queries are fine).
func (s *System) SaveSnapshot(w io.Writer) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	meta := snapMeta{ProjDim: s.cfg.ProjDim, Rows: s.patches.sorted()}
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
	return s.Segmented().Save(w)
}

// LoadSnapshot restores a snapshot written by SaveSnapshot into this
// freshly-constructed, empty system. The system must have been built with
// the same Config (seed, dimensions) as the saver — encoders are seeded,
// so a mismatched seed would embed queries into a different space than the
// stored vectors. A snapshot whose index kind, index options or seal
// threshold differ from the resolved Config is refused. The indexes are
// rebuilt from the recorded recipe.
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
	// The section grows as its bytes arrive, so a corrupt or hostile length
	// costs what the stream holds, never what it declares (one past
	// MaxInt64 reads as empty, which gob refuses).
	var mraw bytes.Buffer
	if _, err := io.CopyN(&mraw, r, int64(mlen)); err != nil {
		return fmt.Errorf("core: reading %d-byte snapshot metadata: %w", mlen, err)
	}
	var meta snapMeta
	if err := gob.NewDecoder(&mraw).Decode(&meta); err != nil {
		return fmt.Errorf("core: decoding snapshot metadata: %w", err)
	}
	if meta.ProjDim != s.cfg.ProjDim {
		return fmt.Errorf("core: snapshot dimension D'=%d, system configured with %d", meta.ProjDim, s.cfg.ProjDim)
	}
	store, err := vectordb.LoadSegmented(r)
	if err != nil {
		return fmt.Errorf("core: loading vector snapshot: %w", err)
	}
	if err := s.checkRecipe(store); err != nil {
		return err
	}
	// The metadata's D' was checked above; the vector stream carries its
	// own dim, and a stream that disagrees would score queries against
	// vectors of the wrong shape.
	if dim := store.Stats().Dim; dim != meta.ProjDim {
		return fmt.Errorf("core: vector snapshot dimension %d, snapshot metadata says D'=%d (corrupt snapshot?)", dim, meta.ProjDim)
	}
	if err := s.patches.insert(meta.Rows); err != nil {
		return fmt.Errorf("core: restoring patch metadata: %w", err)
	}
	s.mu.Lock()
	for _, kf := range meta.Keyframes {
		f := kf.Frame
		s.keyframes[frameKey{kf.VideoID, kf.FrameIdx}] = &f
	}
	s.stats = meta.Stats
	s.built = meta.Built
	s.store = store
	s.mu.Unlock()
	s.ingestGen.Add(1)
	return nil
}

// checkRecipe refuses a restored store whose index kind, index options or
// seal threshold differ from the system's resolved Config.
func (s *System) checkRecipe(store *vectordb.SegmentedCollection) error {
	kind, opts, threshold := store.Recipe()
	switch {
	case kind != s.cfg.Index:
		return fmt.Errorf("core: snapshot index kind %q, system configured with %q", kind, s.cfg.Index)
	case opts != s.cfg.IndexOptions:
		return fmt.Errorf("core: snapshot index options %+v, system configured with %+v", opts, s.cfg.IndexOptions)
	case threshold != s.cfg.SegmentSize:
		return fmt.Errorf("core: snapshot seal threshold (SegmentSize) %d, system configured with %d", threshold, s.cfg.SegmentSize)
	}
	return nil
}
