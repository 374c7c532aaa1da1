package remote

// Codec round-trip property tests: for every wire message, decode(encode(x))
// must reproduce x exactly (scores compared by bit pattern — the conformance
// guarantee is bit-identity, not approximate equality), and re-encoding the
// decoded value must reproduce the original bytes. Truncating an encoding at
// ANY byte boundary must produce an error, never a panic and never a
// silently-short value.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vectordb"
	"repro/internal/video"
)

// edgeFloats are the score/box extremes the fuzzers mix in: zero, negative
// zero, infinities, denormals, and the largest finite values.
var edgeFloats64 = []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}

var edgeFloats32 = []float32{0, float32(math.Copysign(0, -1)), 1, -1,
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, math.SmallestNonzeroFloat32}

func randF64(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return edgeFloats64[rng.Intn(len(edgeFloats64))]
	}
	return rng.NormFloat64()
}

func randF32(rng *rand.Rand) float32 {
	if rng.Intn(4) == 0 {
		return edgeFloats32[rng.Intn(len(edgeFloats32))]
	}
	return float32(rng.NormFloat64())
}

func randObject(rng *rand.Rand) core.ResultObject {
	return core.ResultObject{
		VideoID:  rng.Intn(core.MaxVideoID + 1),
		FrameIdx: rng.Intn(core.MaxFrameIdx + 1),
		Box:      video.Box{X: randF64(rng), Y: randF64(rng), W: randF64(rng), H: randF64(rng)},
		Score:    randF32(rng),
		PatchID:  rng.Int63(),
	}
}

func randObjects(rng *rand.Rand, maxLen int) []core.ResultObject {
	n := rng.Intn(maxLen + 1)
	if n == 0 {
		return nil
	}
	objs := make([]core.ResultObject, n)
	for i := range objs {
		objs[i] = randObject(rng)
	}
	return objs
}

// roundTrip encodes with fill, decodes with read, and checks value equality
// plus byte-level re-encode equality.
func roundTrip[T any](t *testing.T, name string, v T, fill func(*enc, T), read func(*dec) T) {
	t.Helper()
	e := &enc{}
	fill(e, v)
	d := &dec{b: e.b}
	got := read(d)
	if err := d.finish(); err != nil {
		t.Fatalf("%s: decode(%+v): %v", name, v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%s: round trip diverged\n got: %+v\nwant: %+v", name, got, v)
	}
	e2 := &enc{}
	fill(e2, got)
	if string(e2.b) != string(e.b) {
		t.Fatalf("%s: re-encode of decoded value produced different bytes", name)
	}
	// Every strict prefix must fail to decode — a truncated frame can
	// never pass for a whole one.
	for cut := 0; cut < len(e.b); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: decode of %d/%d-byte truncation panicked: %v", name, cut, len(e.b), r)
				}
			}()
			td := &dec{b: e.b[:cut]}
			read(td)
			if err := td.finish(); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded without error", name, cut, len(e.b))
			}
		}()
	}
}

func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []core.PlanKind{"", core.PlanFixed, core.PlanPinned, core.PlanAdaptive, core.PlanAdaptiveExact}
	cases := []core.Plan{
		{}, // all zero
		{Exact: true, FastK: 1 << 30, ShardK: -1, RerankFrames: math.MaxInt32, TopN: -7,
			Kind: core.PlanAdaptiveExact, PredictedRecall: 1},
		{FastK: 40, NProbe: 4, Int8: true, Kind: core.PlanAdaptive, PredictedRecall: 0.95},
	}
	for i := 0; i < 100; i++ {
		cases = append(cases, core.Plan{
			Exact:           rng.Intn(2) == 0,
			FastK:           rng.Intn(1 << 16),
			ShardK:          rng.Intn(1 << 16),
			NProbe:          rng.Intn(1 << 8),
			Ef:              rng.Intn(1 << 10),
			RerankFrames:    rng.Intn(1 << 10),
			TopN:            rng.Intn(1 << 10),
			SkipRerank:      rng.Intn(2) == 0,
			Int8:            rng.Intn(2) == 0,
			Kind:            kinds[rng.Intn(len(kinds))],
			PredictedRecall: randF64(rng),
		})
	}
	for _, c := range cases {
		roundTrip(t, "plan", c, appendPlan, readPlan)
	}
}

// everyField returns a value of T with each exported field except skip set
// to a non-zero value, so a round trip that drops a field shows it.
func everyField[T any](t *testing.T, skip ...string) T {
	t.Helper()
	var v T
	rv := reflect.ValueOf(&v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f, name := rv.Field(i), rv.Type().Field(i).Name
		if !rv.Type().Field(i).IsExported() || slices.Contains(skip, name) {
			continue
		}
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 3))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.String:
			f.SetString("x")
		default:
			t.Fatalf("%T.%s: no non-zero value for kind %s — teach everyField", v, name, f.Kind())
		}
	}
	return v
}

// sameFields fails naming every exported field of T (except skip) on which
// got and want differ.
func sameFields[T any](t *testing.T, what string, got, want T, skip ...string) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		if !g.Type().Field(i).IsExported() || slices.Contains(skip, name) {
			continue
		}
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: field %s did not survive the wire: got %v, want %v", what, name, g.Field(i), w.Field(i))
		}
	}
}

// TestPlanAndRungFieldsAllTravel: every exported Plan field except the
// engine-only ShardKs, and every Rung field, survives its wire round trip —
// so the next field added to either cannot be dropped silently.
func TestPlanAndRungFieldsAllTravel(t *testing.T) {
	plan := everyField[core.Plan](t, "ShardKs")
	e := &enc{}
	appendPlan(e, plan)
	sameFields(t, "plan", readPlan(&dec{b: e.b}), plan, "ShardKs")

	rung := everyField[core.Rung](t)
	e = &enc{}
	appendPlanStats(e, core.PlanStats{Rungs: []core.Rung{rung}})
	st := readPlanStats(&dec{b: e.b})
	if len(st.Rungs) != 1 {
		t.Fatalf("one rung sent, %d decoded", len(st.Rungs))
	}
	sameFields(t, "rung", st.Rungs[0], rung)
}

func TestPlanStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []core.PlanStats{
		{}, // empty shard: no sample, no terms, no rungs
		{Entities: math.MaxInt32, Dim: 1, SampleEvery: 1 << 20,
			Sample:     []float32{math.MaxFloat32},
			Terms:      []core.TermCount{{Name: strings.Repeat("t", 1<<10), Objects: -1, Frames: math.MaxInt32}},
			Rungs:      []core.Rung{{NProbe: 8, Int8: true, MinRecall: 0.9, MeanRecall: 0.95}, {NProbe: 64, MinRecall: 1, MeanRecall: 1}},
			Calibrated: true, Margin: 0.25},
	}
	for i := 0; i < 60; i++ {
		st := core.PlanStats{
			Entities:    rng.Intn(1 << 24),
			Dim:         rng.Intn(64) + 1,
			SampleEvery: 1 << rng.Intn(10),
			Calibrated:  rng.Intn(2) == 0,
			Margin:      randF64(rng),
		}
		for j := rng.Intn(20); j > 0; j-- {
			st.Sample = append(st.Sample, randF32(rng))
		}
		for j := rng.Intn(6); j > 0; j-- {
			st.Terms = append(st.Terms, core.TermCount{
				Name: strings.Repeat("x", rng.Intn(12)), Objects: rng.Intn(1 << 20), Frames: rng.Intn(1 << 20)})
		}
		for j := rng.Intn(7); j > 0; j-- {
			st.Rungs = append(st.Rungs, core.Rung{
				NProbe: rng.Intn(64), Ef: rng.Intn(256), Int8: rng.Intn(2) == 0,
				MinRecall: rng.Float64(), MeanRecall: rng.Float64()})
		}
		cases = append(cases, st)
	}
	for _, c := range cases {
		roundTrip(t, "plan-stats", c, appendPlanStats, readPlanStats)
	}
}

func TestObjectsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Zero-length and max-field-width values first, then fuzz.
	cases := [][]core.ResultObject{
		nil,
		{{}},
		{{
			VideoID:  core.MaxVideoID,
			FrameIdx: core.MaxFrameIdx,
			Box:      video.Box{X: math.MaxFloat64, Y: -math.MaxFloat64, W: math.Inf(1), H: math.SmallestNonzeroFloat64},
			Score:    math.MaxFloat32,
			PatchID:  core.PackPatchID(core.MaxVideoID, core.MaxFrameIdx, core.MaxPatch),
		}},
	}
	for i := 0; i < 100; i++ {
		cases = append(cases, randObjects(rng, 20))
	}
	for _, c := range cases {
		roundTrip(t, "objects", c, appendObjects, readObjects)
	}
}

// stage1Request is one opFastSearchBatch request body: the pairs and the
// trace id.
type stage1Request struct {
	Texts []string
	Plans []core.Plan
	TID   uint64
}

func appendStage1Request(e *enc, r stage1Request) {
	appendQueries(e, r.Texts, r.Plans)
	e.u64(r.TID)
}

func readStage1Request(d *dec) stage1Request {
	var r stage1Request
	r.Texts, r.Plans = readQueries(d)
	r.TID = d.u64()
	return r
}

// stage1Cases spans the stage-1 batch shapes: empty, a lone query, an
// int8 plan, and a serving-sized random batch.
func stage1Cases() []stage1Request {
	rng := rand.New(rand.NewSource(12))
	cases := []stage1Request{
		{},
		{Texts: []string{"A red car driving in the center of the road."}, Plans: []core.Plan{{FastK: 100, ShardK: 100, NProbe: 16, Ef: 64, RerankFrames: 16, TopN: 10, Kind: core.PlanFixed}}, TID: 7},
		{Texts: []string{""}, Plans: []core.Plan{{Int8: true, NProbe: 4, Kind: core.PlanAdaptive, PredictedRecall: 0.93}}},
	}
	batch := stage1Request{TID: math.MaxUint64}
	for i := 0; i < 8; i++ {
		batch.Texts = append(batch.Texts, strings.Repeat("car ", rng.Intn(6)))
		batch.Plans = append(batch.Plans, core.Plan{
			Exact: rng.Intn(2) == 0, FastK: rng.Intn(1 << 10), ShardK: rng.Intn(1 << 10),
			NProbe: rng.Intn(64), Ef: rng.Intn(256), Int8: rng.Intn(2) == 0, Kind: core.PlanPinned,
		})
	}
	return append(cases, batch)
}

// TestStage1RoundTrip: the stage-1 op's request (pairs + trace id) and
// response (one hit list per query) round-trip exactly, every strict
// prefix of either fails to decode, and a forged pair count is refused
// before it sizes anything.
func TestStage1RoundTrip(t *testing.T) {
	for _, c := range stage1Cases() {
		roundTrip(t, "stage1-request", c, appendStage1Request, readStage1Request)
	}
	rng := rand.New(rand.NewSource(13))
	hitCases := [][][]core.ResultObject{nil, {nil}, {nil, randObjects(rng, 3), nil}}
	for i := 0; i < 40; i++ {
		var lists [][]core.ResultObject
		for j := rng.Intn(9); j > 0; j-- {
			lists = append(lists, randObjects(rng, 6))
		}
		hitCases = append(hitCases, lists)
	}
	for _, c := range hitCases {
		roundTrip(t, "stage1-response", c, appendHitLists, readHitLists)
	}

	e := &enc{}
	e.u32(1 << 28) // pair count, with one pair behind it
	e.str("a red car")
	appendPlan(e, core.Plan{})
	e.u64(0)
	d := &dec{b: e.b}
	if texts, plans := readQueries(d); texts != nil || plans != nil {
		t.Fatalf("forged pair count decoded to %d texts, %d plans", len(texts), len(plans))
	}
	if err := d.finish(); err == nil {
		t.Fatal("forged pair count must error")
	}
	e = &enc{}
	e.u32(math.MaxUint32) // hit-list count in a 4-byte payload
	d = &dec{b: e.b}
	if lists := readHitLists(d); lists != nil {
		t.Fatalf("forged list count decoded to %d lists", len(lists))
	}
	if err := d.finish(); err == nil {
		t.Fatal("forged list count must error")
	}
}

func TestRefsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]core.FrameRef{
		nil,
		{{VideoID: core.MaxVideoID, FrameIdx: core.MaxFrameIdx, PatchID: math.MaxInt64}},
	}
	for i := 0; i < 100; i++ {
		n := rng.Intn(10)
		var refs []core.FrameRef
		for j := 0; j < n; j++ {
			refs = append(refs, core.FrameRef{
				VideoID: rng.Intn(core.MaxVideoID + 1), FrameIdx: rng.Intn(core.MaxFrameIdx + 1), PatchID: rng.Int63(),
			})
		}
		cases = append(cases, refs)
	}
	for _, c := range cases {
		roundTrip(t, "refs", c, appendRefs, readRefs)
	}
}

func TestGroundingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := [][]core.Grounding{
		nil,
		{{}}, // a grounding with no objects, Grounds=false
	}
	for i := 0; i < 60; i++ {
		n := rng.Intn(8)
		var gs []core.Grounding
		for j := 0; j < n; j++ {
			gs = append(gs, core.Grounding{
				Ref:     core.FrameRef{VideoID: rng.Intn(1 << 16), FrameIdx: rng.Intn(1 << 20), PatchID: rng.Int63()},
				Objects: randObjects(rng, 5),
				Best:    randF32(rng),
				Grounds: rng.Intn(2) == 0,
			})
		}
		cases = append(cases, gs)
	}
	for _, c := range cases {
		roundTrip(t, "groundings", c, appendGroundings, readGroundings)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []core.IngestStats{
		{},
		{Videos: math.MaxInt32, Frames: 1, Keyframes: 2, Tokens: 3,
			Processing: time.Duration(math.MaxInt64), Indexing: -1},
	}
	for i := 0; i < 50; i++ {
		cases = append(cases, core.IngestStats{
			Videos: rng.Intn(1 << 20), Frames: rng.Intn(1 << 24), Keyframes: rng.Intn(1 << 20),
			Tokens: rng.Intn(1 << 28), Processing: time.Duration(rng.Int63()), Indexing: time.Duration(rng.Int63()),
		})
	}
	for _, c := range cases {
		roundTrip(t, "stats", c, appendStats, readStats)
	}
}

func TestReplicaStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := [][]ReplicaStat{
		nil,
		{{Healthy: true, Reads: math.MaxUint64, Inflight: math.MinInt64}},
	}
	for i := 0; i < 50; i++ {
		n := rng.Intn(6)
		var sts []ReplicaStat
		for j := 0; j < n; j++ {
			sts = append(sts, ReplicaStat{Healthy: rng.Intn(2) == 0, Reads: rng.Uint64(), Inflight: rng.Int63() - (1 << 62)})
		}
		cases = append(cases, sts)
	}
	for _, c := range cases {
		roundTrip(t, "replica-stats", c, appendReplicaStats, readReplicaStats)
	}
}

func TestConfigSummaryRoundTrip(t *testing.T) {
	cases := []ConfigSummary{
		{}, // zero, empty index string
		{Dim: 64, ProjDim: 32, Seed: math.MaxUint64, Index: "imi", FastK: 100, TopN: 10, RerankFrames: 16, Replicas: 3},
		{Index: strings.Repeat("x", 1<<12)}, // max-field-width string
		{Index: "flat", Streaming: true},    // streaming with default threshold
		{Index: "imi", Streaming: true, SegmentSize: 4096, Replicas: 2},
		{SegmentSize: math.MaxInt32}, // threshold without streaming still travels
	}
	for _, c := range cases {
		roundTrip(t, "config-summary", c, appendConfigSummary, readConfigSummary)
	}
}

func TestSegmentStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []vectordb.SegmentStats{
		{}, // zero: a batch worker answering "not streaming"
		{Streaming: true, Sealed: 12, Building: 2, Growing: 1, GrowingLen: 511,
			SealedVectors: 49152, RawBytes: 1 << 40, IndexBytes: 1 << 38,
			Seals: math.MaxUint64, Compactions: 7},
	}
	for i := 0; i < 50; i++ {
		cases = append(cases, vectordb.SegmentStats{
			Streaming:     rng.Intn(2) == 0,
			Sealed:        rng.Intn(1 << 16),
			Building:      rng.Intn(1 << 8),
			Growing:       rng.Intn(1 << 8),
			GrowingLen:    rng.Intn(1 << 20),
			SealedVectors: rng.Intn(1 << 24),
			RawBytes:      rng.Int63(),
			IndexBytes:    rng.Int63(),
			Seals:         rng.Uint64(),
			Compactions:   rng.Uint64(),
		})
	}
	for _, c := range cases {
		roundTrip(t, "segment-stats", c, appendSegmentStats, readSegmentStats)
	}
}

// statusCases spans the ShardStatus shapes that matter on the wire: the
// all-zero snapshot (zero replicas, Streaming=false), a batch worker, a
// streaming replica group, and every counter at its widest.
func statusCases() []ShardStatus {
	return []ShardStatus{
		{},
		{BootID: 1, Gen: 7, Built: true, Entities: 4096,
			Ingest:   core.IngestStats{Videos: 3, Frames: 900, Keyframes: 40, Tokens: 4096, Processing: time.Second, Indexing: time.Millisecond},
			Replicas: []ReplicaStat{{Healthy: true, Reads: 12}},
			Config:   ConfigSummary{Dim: 64, ProjDim: 32, Seed: 9, Index: "imi", FastK: 100, TopN: 10, RerankFrames: 16, Replicas: 1}},
		{BootID: 2, Gen: 1, Entities: 1,
			Replicas: []ReplicaStat{{Healthy: true}, {Healthy: false, Inflight: 3}, {Healthy: true, Reads: 1}},
			Segments: vectordb.SegmentStats{Streaming: true, Sealed: 2, Building: 1, Growing: 1, GrowingLen: 17, SealedVectors: 128, RawBytes: 1 << 20, IndexBytes: 1 << 18, Seals: 3, Compactions: 1},
			Config:   ConfigSummary{Index: "flat", Streaming: true, SegmentSize: 64, Replicas: 3}},
		{BootID: math.MaxUint64, Gen: math.MaxUint64, Built: true, Entities: math.MaxInt,
			Ingest: core.IngestStats{Videos: math.MaxInt, Frames: math.MaxInt, Keyframes: math.MaxInt, Tokens: math.MaxInt,
				Processing: time.Duration(math.MaxInt64), Indexing: time.Duration(math.MinInt64)},
			Replicas: []ReplicaStat{{Healthy: true, Reads: math.MaxUint64, Inflight: math.MinInt64}},
			Segments: vectordb.SegmentStats{Streaming: true, Sealed: math.MaxInt, Building: math.MaxInt, Growing: math.MaxInt,
				GrowingLen: math.MaxInt, SealedVectors: math.MaxInt, RawBytes: math.MaxInt64, IndexBytes: math.MaxInt64,
				Seals: math.MaxUint64, Compactions: math.MaxUint64},
			Config: ConfigSummary{Dim: math.MaxInt, ProjDim: math.MaxInt, Seed: math.MaxUint64, Index: strings.Repeat("x", 1<<10),
				FastK: math.MaxInt, TopN: math.MaxInt, RerankFrames: math.MaxInt, Streaming: true, SegmentSize: math.MaxInt, Replicas: math.MaxInt}},
	}
}

// forgedStatus encodes a status whose replica count claims far more
// entries than the payload carries.
func forgedStatus() []byte {
	e := &enc{}
	e.u64(1)        // boot id
	e.u64(1)        // generation
	e.boolean(true) // built
	e.i64(1)        // entities
	appendStats(e, core.IngestStats{})
	e.u32(1 << 28) // replica count, with nothing behind it
	return e.b
}

// TestStatusRoundTrip: the one metadata message round-trips exactly and
// every strict prefix of its encoding fails to decode.
func TestStatusRoundTrip(t *testing.T) {
	for _, c := range statusCases() {
		roundTrip(t, "status", c, appendStatus, readStatus)
	}
	d := &dec{b: forgedStatus()}
	if st := readStatus(d); len(st.Replicas) != 0 {
		t.Fatalf("forged replica count decoded to %d replicas", len(st.Replicas))
	}
	if err := d.finish(); err == nil {
		t.Fatal("forged replica count must error")
	}
}

// TestDecoderRejectsForgedCounts: a list count claiming more elements than
// the payload could possibly hold must fail fast without allocating a
// giant slice.
func TestDecoderRejectsForgedCounts(t *testing.T) {
	e := &enc{}
	e.u32(math.MaxUint32) // count: ~4 billion objects in a 4-byte payload
	d := &dec{b: e.b}
	if objs := readObjects(d); objs != nil {
		t.Fatalf("forged count decoded to %d objects", len(objs))
	}
	if err := d.finish(); err == nil {
		t.Fatal("forged count must error")
	}
	// Same for byte strings.
	e = &enc{}
	e.u32(1 << 30)
	d = &dec{b: e.b}
	if b := d.bytesv(); b != nil {
		t.Fatalf("forged byte length decoded to %d bytes", len(b))
	}
	if err := d.finish(); err == nil {
		t.Fatal("forged byte length must error")
	}
}

// TestDecoderRejectsTrailingGarbage: a payload with unconsumed bytes after
// a complete value is corrupt, not "close enough".
func TestDecoderRejectsTrailingGarbage(t *testing.T) {
	e := &enc{}
	appendPlan(e, core.Plan{FastK: 3})
	e.u8(0xAB)
	d := &dec{b: e.b}
	readPlan(d)
	if err := d.finish(); err == nil {
		t.Fatal("trailing bytes must error")
	}
}
