package vectordb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/ann"
	"repro/internal/mat"
)

// Snapshot format: a little-endian binary stream that keeps one rows
// record per frozen segment, so a collection restores with its segment
// structure — and therefore its index seeds — intact.
//
//	magic "LOVOSG3\n"
//	header: uint16 name length, name bytes
//	        uint16 index-kind length, kind bytes
//	        uint32 dim, in (0, MaxDim]; uint8 normalize
//	        index options: 6×int64 (NList, P, M, M0, EfConstruction, Seed);
//	        the first five in [0, maxIndexOption]
//	int64 sealThreshold (0 = never seals by size), int64 seq
//	uint32 frozen-segment count (ascending identity order)
//	per segment: int64 lo, int64 hi, rows
//	rows of the growing segment
//
//	rows:   uint64 count, per row: int64 id, dim×float32 (IEEE-754 bits)
//
// Rows are written and read bit for bit and appended straight to the row
// store — never re-inserted, since Insert's re-normalisation would move
// already-normalised floats by an ulp. Indexes are not persisted:
// LoadSegmented rebuilds every frozen segment's index synchronously from
// the recorded kind and options under the collection's seed rule — the
// segment-load-then-index recovery model — so a restored store serves
// byte-identical answers to the one that saved. Retired layouts are
// refused with an error asking for a re-save: the database layout
// (LOVODB1, LOVODB2), which held unsegmented collections; LOVOSG1, which
// carried a raw-copy flag byte after the options; and LOVOSG2, which
// carried a compaction fan-in word after the seal threshold.
const segMagic = "LOVOSG3\n"

// maxIndexOption bounds every decoded structural index option, so a
// corrupt header cannot size a build (an HNSW beam, a k-means k) from a
// garbage integer.
const maxIndexOption = 1 << 16

// header is the collection description a snapshot opens with.
type header struct {
	name   string
	schema Schema
	kind   IndexKind
	opts   IndexOptions
}

// headerFields is the header's fixed-size tail, coded in one call.
type headerFields struct {
	Dim       uint32
	Normalize uint8
	Options   [6]int64 // NList, P, M, M0, EfConstruction, Seed
}

func writeHeader(w io.Writer, h header) error {
	if err := writeString(w, h.name); err != nil {
		return err
	}
	if err := writeString(w, string(h.kind)); err != nil {
		return err
	}
	o := h.opts
	f := headerFields{
		Dim:     uint32(h.schema.Dim),
		Options: [6]int64{int64(o.NList), int64(o.P), int64(o.M), int64(o.M0), int64(o.EfConstruction), int64(o.Seed)},
	}
	if h.schema.Normalize {
		f.Normalize = 1
	}
	return binary.Write(w, binary.LittleEndian, &f)
}

func readHeader(r io.Reader) (header, error) {
	var h header
	var err error
	if h.name, err = readString(r); err != nil {
		return h, err
	}
	kind, err := readString(r)
	if err != nil {
		return h, err
	}
	var f headerFields
	if err := binary.Read(r, binary.LittleEndian, &f); err != nil {
		return h, err
	}
	if err := checkDim(int(f.Dim)); err != nil {
		return h, fmt.Errorf("vectordb: snapshot collection %q: %w", h.name, err)
	}
	for _, v := range f.Options[:5] {
		if v < 0 || v > maxIndexOption {
			return h, fmt.Errorf("vectordb: snapshot collection %q: index option %d outside [0, %d]", h.name, v, maxIndexOption)
		}
	}
	h.kind = IndexKind(kind)
	h.schema = Schema{Dim: int(f.Dim), Normalize: f.Normalize == 1}
	h.opts = IndexOptions{
		NList: int(f.Options[0]), P: int(f.Options[1]), M: int(f.Options[2]),
		M0: int(f.Options[3]), EfConstruction: int(f.Options[4]), Seed: uint64(f.Options[5]),
	}
	return h, nil
}

// writeRows writes a rows record.
func writeRows(w io.Writer, rows *ann.Rows) error {
	if err := binary.Write(w, binary.LittleEndian, uint64(rows.Len())); err != nil {
		return err
	}
	buf := make([]byte, 8+4*rows.Dim())
	for i := 0; i < rows.Len(); i++ {
		binary.LittleEndian.PutUint64(buf, uint64(rows.ID(i)))
		for d, f := range rows.Row(i) {
			binary.LittleEndian.PutUint32(buf[8+4*d:], math.Float32bits(f))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readRows appends a rows record to rows bit for bit. Memory grows only
// with the bytes actually read, whatever count the record claims.
func readRows(r io.Reader, rows *ann.Rows) error {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	buf := make([]byte, 8+4*rows.Dim())
	vec := make(mat.Vec, rows.Dim())
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		id := int64(binary.LittleEndian.Uint64(buf))
		for d := range vec {
			vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(buf[8+4*d:]))
		}
		if _, ok := rows.Append(id, vec); !ok {
			return fmt.Errorf("%w: %d", ErrDuplicate, id)
		}
	}
	return nil
}

// readMagic checks a stream's magic, naming the retired layout when that
// is what it finds.
func readMagic(r io.Reader, want string, retired ...string) error {
	head := make([]byte, len(want))
	if _, err := io.ReadFull(r, head); err != nil {
		return fmt.Errorf("vectordb: reading snapshot magic: %w", err)
	}
	if string(head) == want {
		return nil
	}
	if slices.Contains(retired, string(head)) {
		return fmt.Errorf("vectordb: snapshot format %q is no longer supported (this version reads %q); re-save the snapshot from its source data", head, want)
	}
	return fmt.Errorf("vectordb: bad snapshot magic %q", head)
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Save writes a snapshot of the segmented collection. Safe to call
// mid-stream: segments whose background index build is still pending are
// persisted like sealed ones (the load path rebuilds every frozen
// segment's index anyway). Inserts and seals are blocked for the duration
// of the write.
func (s *SegmentedCollection) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(segMagic); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := writeHeader(bw, header{s.name, s.schema, s.kind, s.opts}); err != nil {
		return err
	}
	meta := [2]int64{int64(s.sealThreshold), int64(s.seq)}
	if err := binary.Write(bw, binary.LittleEndian, &meta); err != nil {
		return err
	}
	// Frozen rows never change, and the growing segment's only change
	// under s.mu, which is held: no segment lock is needed.
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(s.frozen))); err != nil {
		return err
	}
	for _, seg := range s.frozen {
		if err := binary.Write(bw, binary.LittleEndian, [2]int64{int64(seg.lo), int64(seg.hi)}); err != nil {
			return err
		}
		if err := writeRows(bw, seg.col.rows); err != nil {
			return fmt.Errorf("vectordb: saving segment %q: %w", seg.col.name, err)
		}
	}
	if err := writeRows(bw, s.growing.rows); err != nil {
		return fmt.Errorf("vectordb: saving growing segment: %w", err)
	}
	return bw.Flush()
}

// LoadSegmented reads a segmented snapshot and rebuilds every frozen
// segment's index synchronously under the seed rule, restoring
// byte-identical approximate answers.
func LoadSegmented(r io.Reader) (*SegmentedCollection, error) {
	br := bufio.NewReader(r)
	if err := readMagic(br, segMagic, "LOVODB1\n", "LOVODB2\n", "LOVOSG1\n", "LOVOSG2\n"); err != nil {
		return nil, err
	}
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	var meta [2]int64 // sealThreshold, seq
	if err := binary.Read(br, binary.LittleEndian, &meta); err != nil {
		return nil, err
	}
	s, err := NewSegmented(h.name, h.schema, h.kind, h.opts, int(meta[0]))
	if err != nil {
		return nil, err
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	for si := uint32(0); si < count; si++ {
		var lohi [2]int64
		if err := binary.Read(br, binary.LittleEndian, &lohi); err != nil {
			return nil, err
		}
		lo, hi := int(lohi[0]), int(lohi[1])
		col := newCollection(segName(h.name, lo, hi), s.schema)
		if err := readRows(br, col.rows); err != nil {
			return nil, err
		}
		segOpts := h.opts
		segOpts.Seed = s.seedFor(lo, hi)
		if err := col.BuildIndex(s.kind, segOpts); err != nil {
			return nil, fmt.Errorf("vectordb: rebuilding segment [%d,%d] index: %w", lo, hi, err)
		}
		s.frozen = append(s.frozen, &segment{col: col, lo: lo, hi: hi})
		s.built++
	}
	if err := readRows(br, s.growing.rows); err != nil {
		return nil, err
	}
	// Restore the seal sequence last: the growing segment NewSegmented
	// created consumed seq 1, but the saver's counter wins.
	s.seq = int(meta[1])
	s.growing.name = segName(h.name, s.seq, s.seq)
	return s, nil
}
