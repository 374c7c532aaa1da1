package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mat"
	"repro/internal/video"
)

// The references below are the stage-1 tail as it was before the k-way
// merge and the frame table: a full sort of the concatenated legs, a map
// per candidate-frame list, and a dedup that compares each hit with every
// kept hit. They stay here as the differential oracle for the linear tail.

func refMergeHits(lists [][]ResultObject, fastK int) []ResultObject {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	merged := make([]ResultObject, 0, total)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	slices.SortFunc(merged, func(a, b ResultObject) int {
		return mat.Canonical(mat.Scored{ID: a.PatchID, Score: a.Score}, mat.Scored{ID: b.PatchID, Score: b.Score})
	})
	if fastK > 0 && len(merged) > fastK {
		merged = merged[:fastK]
	}
	return merged
}

func refCandidateFrames(hits []ResultObject) []FrameRef {
	seen := make(map[frameKey]bool)
	var refs []FrameRef
	for _, h := range hits {
		k := frameKey{h.VideoID, h.FrameIdx}
		if seen[k] {
			continue
		}
		seen[k] = true
		refs = append(refs, FrameRef{VideoID: h.VideoID, FrameIdx: h.FrameIdx, PatchID: h.PatchID})
	}
	return refs
}

func refDedupHits(objs []ResultObject, limit int) []ResultObject {
	var out []ResultObject
	for _, o := range objs {
		dup := false
		for i := range out {
			if out[i].VideoID == o.VideoID && out[i].FrameIdx == o.FrameIdx && out[i].Box.IoU(o.Box) > 0.8 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, o)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// tailCase decodes bytes into 1–4 stage-1 legs and a cut. Patch IDs are
// unique across legs, as shard legs' are, so the canonical order is total.
// Scores come from a small set holding ±0 (or are all tied), frames repeat,
// and boxes of one frame sit on both sides of the dedup's IoU 0.8. A leg
// is empty, canonical or left in generation order; the cut is negative,
// zero, below or above the hit count.
func tailCase(data []byte) ([][]ResultObject, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	scores := []float32{0.9, 0.5, 0.5, 0.25, 0, float32(math.Copysign(0, -1)), -0.3, 1}
	// Offsets of a 0.2-wide box: IoU with the unshifted box is 1, 0.905,
	// 0.818, ~0.8, 0.739 and 0.
	shifts := []float64{0, 0.01, 0.02, 0.0222, 0.03, 0.2}
	legs, tied, fastK := 1+next()%4, next()%5 == 0, next()%160-10
	lists := make([][]ResultObject, legs)
	id := 0
	for leg := range lists {
		n, mode := next()%64, next()%4
		if n == 0 && mode == 0 {
			continue // a nil leg beside the empty ones
		}
		l := make([]ResultObject, n)
		for i := range l {
			id++
			s := scores[next()%len(scores)]
			if tied {
				s = 0.5
			}
			l[i] = ResultObject{
				VideoID: next() % 3, FrameIdx: next() % 4, Score: s,
				PatchID: int64(next())<<16 | int64(id),
				Box:     video.Box{X: 0.1 + shifts[next()%len(shifts)], Y: 0.1, W: 0.2, H: 0.2},
			}
		}
		if mode != 0 {
			slices.SortFunc(l, func(a, b ResultObject) int {
				return mat.Canonical(mat.Scored{ID: a.PatchID, Score: a.Score}, mat.Scored{ID: b.PatchID, Score: b.Score})
			})
		}
		lists[leg] = l
	}
	return lists, fastK
}

// sameBits reports whether two hit lists are equal bit for bit (-0 is not
// +0) and agree on being nil.
func sameBits(a, b []ResultObject) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float32bits(x.Score) != math.Float32bits(y.Score) {
			return false
		}
		x.Score, y.Score = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func cloneLists(lists [][]ResultObject) [][]ResultObject {
	out := make([][]ResultObject, len(lists))
	for i, l := range lists {
		out[i] = slices.Clone(l)
	}
	return out
}

// checkTail runs the tail on one case against the references: the merge,
// its candidate frames, and the dedup of the merge at the executor's limit
// and at others — and of each raw leg, canonical or not. None of them may
// write the caller's slices.
func checkTail(t *testing.T, lists [][]ResultObject, fastK int) {
	t.Helper()
	before := cloneLists(lists)
	got, want := MergeHits(lists, fastK), refMergeHits(lists, fastK)
	if !sameBits(got, want) {
		t.Fatalf("MergeHits(fastK=%d) over %d legs\n got %v\nwant %v", fastK, len(lists), got, want)
	}
	if !sameBits(slices.Concat(lists...), slices.Concat(before...)) {
		t.Fatal("MergeHits wrote the caller's lists")
	}
	if refs, want := CandidateFrames(got), refCandidateFrames(got); !reflect.DeepEqual(refs, want) {
		t.Fatalf("CandidateFrames\n got %v\nwant %v", refs, want)
	}
	inputs := append([][]ResultObject{got}, lists...)
	for _, in := range inputs {
		snapshot := slices.Clone(in)
		for _, limit := range []int{fastK, 0, 1, 3} {
			kept, frames := dedupHits(in, limit)
			if want := refDedupHits(in, limit); !sameBits(kept, want) {
				t.Fatalf("DedupHits(limit=%d)\n got %v\nwant %v", limit, kept, want)
			}
			if want := len(refCandidateFrames(in)); frames != want {
				t.Fatalf("dedup counted %d frames, want %d", frames, want)
			}
			if !sameBits(DedupHits(in, limit), kept) {
				t.Fatal("DedupHits and dedupHits disagree")
			}
		}
		if !sameBits(in, snapshot) {
			t.Fatal("DedupHits wrote the caller's hits")
		}
	}
}

// TestTailMatchesReference is the differential test of the tail after
// stage 1 against the pre-merge references over random cases.
func TestTailMatchesReference(t *testing.T) {
	cases := 4000
	if testing.Short() {
		cases = 500
	}
	rng := rand.New(rand.NewPCG(31, 7))
	data := make([]byte, 1100)
	for c := 0; c < cases; c++ {
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		lists, fastK := tailCase(data)
		checkTail(t, lists, fastK)
	}
}

// FuzzMergeDedup holds the tail to the same oracle on fuzzed cases.
func FuzzMergeDedup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 5, 10, 1, 0, 0, 0, 0, 0, 0, 10, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 1, 110, 40, 0, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		lists, fastK := tailCase(data)
		checkTail(t, lists, fastK)
	})
}

// tailTarget is a two-leg PlanTarget whose stage 1 returns fixed canonical
// lists and which has no stage 2: it isolates the executor's tail.
type tailTarget struct{ lists [][][]ResultObject }

func (t tailTarget) ScatterSearchBatch(_ context.Context, texts []string, _ []Plan) ([][][]ResultObject, error) {
	return t.lists[:len(texts)], nil
}

func (tailTarget) ScatterGround(context.Context, string, []FrameRef, int) ([]Grounding, error) {
	return nil, errors.New("tail target has no stage 2")
}

// noRerankTail is a batch of 8 no-rerank queries over a two-leg tailTarget
// with 100 canonical hits per leg: three patches per frame, two of them
// near-duplicate boxes, each leg owning alternate videos — the shape of a
// scan_batch batch on two shards.
func noRerankTail() (PlanTarget, []string, []Plan) {
	const queries, legs, perLeg = 8, 2, 100
	lists := make([][][]ResultObject, queries)
	texts := make([]string, queries)
	plans := make([]Plan, queries)
	for q := range lists {
		lists[q] = make([][]ResultObject, legs)
		for leg := range lists[q] {
			l := make([]ResultObject, perLeg)
			for i := range l {
				x := 0.1 + 0.01*float64(i%3) + 0.3*float64(i%3/2)
				l[i] = ResultObject{
					VideoID: leg + legs*(i/30), FrameIdx: (i / 3) % 10,
					Box:   video.Box{X: x, Y: 0.2, W: 0.2, H: 0.2},
					Score: 0.9 - 0.002*float32(i+q), PatchID: int64(perLeg*leg + i),
				}
			}
			lists[q][leg] = l
		}
		texts[q] = fmt.Sprintf("query %d", q)
		plans[q] = Plan{FastK: 100, Exact: true, SkipRerank: true}
	}
	return tailTarget{lists}, texts, plans
}

// BenchmarkNoRerankTail times the executor's tail after stage 1 on a
// no-rerank batch: merge, frame count and dedup.
func BenchmarkNoRerankTail(b *testing.B) {
	target, texts, plans := noRerankTail()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecutePlanBatch(ctx, target, Config{}, texts, plans, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func hit(patch int64, score float32, video, frame int) ResultObject {
	return ResultObject{VideoID: video, FrameIdx: frame, Score: score, PatchID: patch}
}

// TestMergeHitsEdgeCases covers the stage-1 merge at its boundaries: no
// lists, empty lists, a cut larger than the candidate set, no cut at all,
// and all-ties scores (patch ID must break every tie).
func TestMergeHitsEdgeCases(t *testing.T) {
	if got := MergeHits(nil, 10); len(got) != 0 {
		t.Fatalf("merge of no lists = %v", got)
	}
	if got := MergeHits([][]ResultObject{{}, nil, {}}, 10); len(got) != 0 {
		t.Fatalf("merge of empty lists = %v", got)
	}
	a := []ResultObject{hit(1, 0.9, 0, 0), hit(7, 0.5, 0, 3)}
	b := []ResultObject{hit(4, 0.7, 1, 0)}
	if got := MergeHits([][]ResultObject{a, b}, 100); len(got) != 3 {
		t.Fatalf("cut larger than candidates must keep all: %v", got)
	}
	if got := MergeHits([][]ResultObject{a, b}, 0); len(got) != 3 {
		t.Fatalf("fastK=0 must not truncate: %v", got)
	}
	// All-ties: order must be patch ID ascending, regardless of list order.
	ties := [][]ResultObject{
		{hit(9, 0.5, 0, 0), hit(2, 0.5, 0, 1)},
		{hit(5, 0.5, 1, 0)},
	}
	got := MergeHits(ties, 2)
	if len(got) != 2 || got[0].PatchID != 2 || got[1].PatchID != 5 {
		t.Fatalf("tied scores must cut by ascending patch ID: %v", got)
	}
}

// TestDedupHitsEdgeCases covers the no-rerank dedup: empty input, a limit
// above the candidate set, exact-duplicate boxes collapsing, and all-ties
// scores preserving canonical order.
func TestDedupHitsEdgeCases(t *testing.T) {
	if got := DedupHits(nil, 5); len(got) != 0 {
		t.Fatalf("dedup of nothing = %v", got)
	}
	boxed := func(patch int64, score float32, frame int, x float64) ResultObject {
		o := hit(patch, score, 0, frame)
		o.Box.X, o.Box.Y, o.Box.W, o.Box.H = x, 0.1, 0.2, 0.2
		return o
	}
	distinct := []ResultObject{boxed(1, 0.9, 0, 0.1), boxed(2, 0.8, 1, 0.1), boxed(3, 0.7, 2, 0.1)}
	if got := DedupHits(distinct, 100); len(got) != 3 {
		t.Fatalf("limit above candidates must keep all: %v", got)
	}
	// The same frame and box twice (different patches) collapses to the
	// first — higher-scored — hit.
	dups := []ResultObject{boxed(1, 0.9, 0, 0.1), boxed(2, 0.8, 0, 0.1), boxed(3, 0.7, 1, 0.5)}
	got := DedupHits(dups, 100)
	if len(got) != 2 || got[0].PatchID != 1 || got[1].PatchID != 3 {
		t.Fatalf("duplicate boxes must collapse to the best hit: %v", got)
	}
	// All-ties input in canonical order stays in order after dedup.
	ties := []ResultObject{boxed(1, 0.5, 0, 0.1), boxed(2, 0.5, 1, 0.1), boxed(3, 0.5, 2, 0.1)}
	got = DedupHits(ties, 2)
	if len(got) != 2 || got[0].PatchID != 1 || got[1].PatchID != 2 {
		t.Fatalf("tied dedup must truncate canonically: %v", got)
	}
}
