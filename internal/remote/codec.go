package remote

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// The codec is a hand-rolled little-endian binary encoding: fixed-width
// integers and floats, u32-length-prefixed byte strings, u32-count-prefixed
// lists. No reflection, no field names on the wire — the op code implies the
// message layout on both sides. The decoder is sticky-error and bounds-checked
// everywhere: malformed payloads (truncated values, list counts exceeding the
// remaining bytes, trailing garbage) decode to an error, never a panic, and a
// declared length can never drive an allocation larger than the frame that
// carried it.

type enc struct{ b []byte }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f32(v float32) { e.u32(math.Float32bits(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.b = append(e.b, p...)
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("remote: malformed payload: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

func (d *dec) i64() int64    { return int64(d.u64()) }
func (d *dec) f32() float32  { return math.Float32frombits(d.u32()) }
func (d *dec) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *dec) boolean() bool { return d.u8() != 0 }
func (d *dec) intv() int     { return int(d.i64()) }

// count reads a list length, rejecting any count whose elements — each at
// least elemSize encoded bytes — could not possibly fit in the remaining
// payload. The pre-sized decode allocation is thereby bounded by the frame
// that carried the count: a forged count can never drive an allocation
// larger than (or even disproportionate to) the bytes actually received.
func (d *dec) count(elemSize int) int {
	n := d.u32()
	if d.err == nil && int64(n)*int64(elemSize) > int64(len(d.b)-d.off) {
		d.fail("list count %d (x%dB) exceeds %d remaining bytes", n, elemSize, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *dec) bytesv() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

func (d *dec) str() string { return string(d.bytesv()) }

// finish returns the sticky decode error, treating unconsumed trailing bytes
// as corruption — every message must account for its whole payload.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("remote: malformed payload: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// --- message encodings -------------------------------------------------

// appendPlan encodes one execution plan. The inert Plan.Int8, which nothing
// executes, has no encoding. Every other field does — a dropped knob would
// run a different plan on the worker than the one the coordinator reports
// and caches under.
func appendPlan(e *enc, p core.Plan) {
	e.boolean(p.Exact)
	e.i64(int64(p.FastK))
	e.i64(int64(p.ShardK))
	e.i64(int64(p.NProbe))
	e.i64(int64(p.Ef))
	e.i64(int64(p.RerankFrames))
	e.i64(int64(p.TopN))
	e.boolean(p.SkipRerank)
	e.str(string(p.Kind))
}

// encPlanMinSize is the smallest encoded Plan: two bools, six i64 and an
// empty Kind string (u32 length).
const encPlanMinSize = 2 + 6*8 + 4

func readPlan(d *dec) core.Plan {
	return core.Plan{
		Exact:        d.boolean(),
		FastK:        d.intv(),
		ShardK:       d.intv(),
		NProbe:       d.intv(),
		Ef:           d.intv(),
		RerankFrames: d.intv(),
		TopN:         d.intv(),
		SkipRerank:   d.boolean(),
		Kind:         core.PlanKind(d.str()),
	}
}

// appendQueries encodes a stage-1 batch: a count, then one (text, plan)
// pair per query.
func appendQueries(e *enc, texts []string, plans []core.Plan) {
	e.u32(uint32(len(texts)))
	for i, text := range texts {
		e.str(text)
		appendPlan(e, plans[i])
	}
}

// encQueryMinSize is the smallest encoded (text, plan) pair: an empty text
// (u32 length) and a minimal plan.
const encQueryMinSize = 4 + encPlanMinSize

func readQueries(d *dec) ([]string, []core.Plan) {
	n := d.count(encQueryMinSize)
	if d.err != nil || n == 0 {
		return nil, nil
	}
	texts := make([]string, 0, n)
	plans := make([]core.Plan, 0, n)
	for i := 0; i < n; i++ {
		texts = append(texts, d.str())
		plans = append(plans, readPlan(d))
		if d.err != nil {
			return nil, nil
		}
	}
	return texts, plans
}

// appendHitLists encodes a stage-1 answer: a count, then one hit list per
// query.
func appendHitLists(e *enc, lists [][]core.ResultObject) {
	e.u32(uint32(len(lists)))
	for _, l := range lists {
		appendObjects(e, l)
	}
}

func readHitLists(d *dec) [][]core.ResultObject {
	n := d.count(4) // each list is at least its own count
	if d.err != nil || n == 0 {
		return nil
	}
	lists := make([][]core.ResultObject, 0, n)
	for i := 0; i < n; i++ {
		lists = append(lists, readObjects(d))
		if d.err != nil {
			return nil
		}
	}
	return lists
}

func appendObject(e *enc, o core.ResultObject) {
	e.i64(int64(o.VideoID))
	e.i64(int64(o.FrameIdx))
	e.f64(o.Box.X)
	e.f64(o.Box.Y)
	e.f64(o.Box.W)
	e.f64(o.Box.H)
	e.f32(o.Score)
	e.i64(o.PatchID)
}

func readObject(d *dec) core.ResultObject {
	return core.ResultObject{
		VideoID:  d.intv(),
		FrameIdx: d.intv(),
		Box:      video.Box{X: d.f64(), Y: d.f64(), W: d.f64(), H: d.f64()},
		Score:    d.f32(),
		PatchID:  d.i64(),
	}
}

func appendObjects(e *enc, objs []core.ResultObject) {
	e.u32(uint32(len(objs)))
	for _, o := range objs {
		appendObject(e, o)
	}
}

// encObjectSize is one encoded ResultObject: two i64, four f64, f32, i64.
const encObjectSize = 60

func readObjects(d *dec) []core.ResultObject {
	n := d.count(encObjectSize)
	if d.err != nil || n == 0 {
		return nil
	}
	objs := make([]core.ResultObject, 0, n)
	for i := 0; i < n; i++ {
		objs = append(objs, readObject(d))
		if d.err != nil {
			return nil
		}
	}
	return objs
}

func appendRefs(e *enc, refs []core.FrameRef) {
	e.u32(uint32(len(refs)))
	for _, r := range refs {
		e.i64(int64(r.VideoID))
		e.i64(int64(r.FrameIdx))
		e.i64(r.PatchID)
	}
}

// encRefSize is one encoded FrameRef: three i64.
const encRefSize = 24

func readRefs(d *dec) []core.FrameRef {
	n := d.count(encRefSize)
	if d.err != nil || n == 0 {
		return nil
	}
	refs := make([]core.FrameRef, 0, n)
	for i := 0; i < n; i++ {
		refs = append(refs, core.FrameRef{VideoID: d.intv(), FrameIdx: d.intv(), PatchID: d.i64()})
		if d.err != nil {
			return nil
		}
	}
	return refs
}

func appendGroundings(e *enc, gs []core.Grounding) {
	e.u32(uint32(len(gs)))
	for _, g := range gs {
		e.i64(int64(g.Ref.VideoID))
		e.i64(int64(g.Ref.FrameIdx))
		e.i64(g.Ref.PatchID)
		appendObjects(e, g.Objects)
		e.f32(g.Best)
		e.boolean(g.Grounds)
	}
}

// encGroundingMin is the smallest encoded Grounding: a ref, an empty
// object list, f32 best, bool.
const encGroundingMin = encRefSize + 4 + 4 + 1

func readGroundings(d *dec) []core.Grounding {
	n := d.count(encGroundingMin)
	if d.err != nil || n == 0 {
		return nil
	}
	gs := make([]core.Grounding, 0, n)
	for i := 0; i < n; i++ {
		g := core.Grounding{
			Ref:     core.FrameRef{VideoID: d.intv(), FrameIdx: d.intv(), PatchID: d.i64()},
			Objects: readObjects(d),
		}
		g.Best = d.f32()
		g.Grounds = d.boolean()
		if d.err != nil {
			return nil
		}
		gs = append(gs, g)
	}
	return gs
}

// appendSpans encodes a worker's exported trace spans — the observability
// sidecar a traced stage op rides home on the response, after the answer
// payload. Span.Start and Dur travel as ns offsets from the worker trace's time zero; Parent
// is an index into the same list (-1 = worker-side root), so the
// coordinator can graft the forest under the RPC leg span with index
// arithmetic alone.
func appendSpans(e *enc, spans []obs.SpanData) {
	e.u32(uint32(len(spans)))
	for _, sp := range spans {
		e.str(sp.Name)
		e.str(sp.Detail)
		e.u32(uint32(sp.Parent))
		e.i64(int64(sp.Start))
		e.i64(int64(sp.Dur))
	}
}

// encSpanMinSize is the smallest encoded span: two empty strings (u32
// lengths), parent u32, start and dur i64.
const encSpanMinSize = 4 + 4 + 4 + 8 + 8

func readSpans(d *dec) []obs.SpanData {
	n := d.count(encSpanMinSize)
	if d.err != nil || n == 0 {
		return nil
	}
	spans := make([]obs.SpanData, 0, n)
	for i := 0; i < n; i++ {
		sp := obs.SpanData{
			Name:   d.str(),
			Detail: d.str(),
			Parent: int32(d.u32()),
			Start:  time.Duration(d.i64()),
			Dur:    time.Duration(d.i64()),
		}
		if d.err != nil {
			return nil
		}
		spans = append(spans, sp)
	}
	return spans
}

func appendStats(e *enc, st core.IngestStats) {
	e.i64(int64(st.Videos))
	e.i64(int64(st.Frames))
	e.i64(int64(st.Keyframes))
	e.i64(int64(st.Tokens))
	e.i64(int64(st.Processing))
	e.i64(int64(st.Indexing))
}

func readStats(d *dec) core.IngestStats {
	return core.IngestStats{
		Videos:     d.intv(),
		Frames:     d.intv(),
		Keyframes:  d.intv(),
		Tokens:     d.intv(),
		Processing: time.Duration(d.i64()),
		Indexing:   time.Duration(d.i64()),
	}
}

func appendConfigSummary(e *enc, s ConfigSummary) {
	e.i64(int64(s.Dim))
	e.i64(int64(s.ProjDim))
	e.u64(s.Seed)
	e.str(s.Index)
	e.i64(int64(s.FastK))
	e.i64(int64(s.TopN))
	e.i64(int64(s.RerankFrames))
	e.i64(int64(s.SegmentSize))
}

func readConfigSummary(d *dec) ConfigSummary {
	return ConfigSummary{
		Dim:          d.intv(),
		ProjDim:      d.intv(),
		Seed:         d.u64(),
		Index:        d.str(),
		FastK:        d.intv(),
		TopN:         d.intv(),
		RerankFrames: d.intv(),
		SegmentSize:  d.intv(),
	}
}

func appendSegmentStats(e *enc, st vectordb.SegmentStats) {
	e.i64(int64(st.Sealed))
	e.i64(int64(st.Building))
	e.i64(int64(st.Growing))
	e.i64(int64(st.GrowingLen))
	e.i64(int64(st.SealedVectors))
	e.i64(st.RawBytes)
	e.i64(st.IndexBytes)
	e.u64(st.Seals)
	e.u64(st.Compactions)
}

func readSegmentStats(d *dec) vectordb.SegmentStats {
	return vectordb.SegmentStats{
		Sealed:        d.intv(),
		Building:      d.intv(),
		Growing:       d.intv(),
		GrowingLen:    d.intv(),
		SealedVectors: d.intv(),
		RawBytes:      d.i64(),
		IndexBytes:    d.i64(),
		Seals:         d.u64(),
		Compactions:   d.u64(),
	}
}

func appendStatus(e *enc, st ShardStatus) {
	e.u64(st.BootID)
	e.u64(st.Gen)
	e.boolean(st.Built)
	e.i64(int64(st.Entities))
	appendStats(e, st.Ingest)
	appendSegmentStats(e, st.Segments)
	appendConfigSummary(e, st.Config)
}

// readStatus decodes a ShardStatus. Addr never travels: the client knows
// which worker it dialed and stamps it after decoding.
func readStatus(d *dec) ShardStatus {
	return ShardStatus{
		BootID:   d.u64(),
		Gen:      d.u64(),
		Built:    d.boolean(),
		Entities: d.intv(),
		Ingest:   readStats(d),
		Segments: readSegmentStats(d),
		Config:   readConfigSummary(d),
	}
}

// appendStatusRequest encodes an opStatus request body: nothing for a read
// answered at once, the since token for a watch.
func appendStatusRequest(e *enc, since *Stamp) {
	if since == nil {
		return
	}
	e.u64(since.BootID)
	e.u64(since.Gen)
	e.boolean(since.Built)
}

// readStatusRequest decodes an opStatus request body — bytes the worker did
// not write. An empty body is a read answered at once (nil); anything else
// must be exactly one since token whose built flag is 0 or 1 (the caller's
// finish rejects trailing bytes).
func readStatusRequest(d *dec) *Stamp {
	if d.off == len(d.b) {
		return nil
	}
	since := &Stamp{BootID: d.u64(), Gen: d.u64()}
	flag := d.u8()
	if flag > 1 {
		d.fail("built flag %d", flag)
	}
	since.Built = flag == 1
	return since
}
