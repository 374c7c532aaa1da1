package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/datasets"
	"repro/internal/mat"
)

// rerankLegs is the stage-2 workload the golden digest covers: every
// Table II query of a small Bellevue system against legs of 8 candidate
// refs, the leg size the serving tier sends a worker. The legs walk every
// retained keyframe in (video, frame) order, and every third leg carries
// two refs this system does not own, the way a scatter-gather engine's
// misrouted or stale refs arrive.
func rerankLegs(t *testing.T) (*System, []string, [][]FrameRef) {
	t.Helper()
	ds := datasets.Bellevue(dsCfg)
	s := buildSystem(t, ds, Config{Seed: 7})
	keys := make([]frameKey, 0, len(s.keyframes))
	for k := range s.keyframes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].video != keys[j].video {
			return keys[i].video < keys[j].video
		}
		return keys[i].frame < keys[j].frame
	})
	const legSize = 8
	var legs [][]FrameRef
	for i := 0; i < len(keys); i += legSize {
		var leg []FrameRef
		for j, k := range keys[i:min(i+legSize, len(keys))] {
			leg = append(leg, FrameRef{VideoID: k.video, FrameIdx: k.frame, PatchID: int64(i + j)})
			if len(legs)%3 == 0 && j%4 == 1 {
				leg = append(leg, FrameRef{VideoID: 9999, FrameIdx: k.frame, PatchID: -1})
			}
		}
		legs = append(legs, leg)
	}
	texts := make([]string, len(ds.Queries))
	for i, q := range ds.Queries {
		texts[i] = q.Text
	}
	return s, texts, legs
}

// groundingDigest hashes every bit GroundCandidates answers: refs, the
// ownership flag, the best score and each kept object.
func groundingDigest(gs []Grounding, h io.Writer) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	for _, g := range gs {
		put(uint64(g.Ref.VideoID))
		put(uint64(g.Ref.FrameIdx))
		put(uint64(g.Ref.PatchID))
		if g.Grounds {
			put(1)
		} else {
			put(0)
		}
		put(uint64(math.Float32bits(g.Best)))
		put(uint64(len(g.Objects)))
		for _, o := range g.Objects {
			put(uint64(o.VideoID))
			put(uint64(o.FrameIdx))
			put(uint64(o.PatchID))
			put(uint64(math.Float32bits(o.Score)))
			put(math.Float64bits(o.Box.X))
			put(math.Float64bits(o.Box.Y))
			put(math.Float64bits(o.Box.W))
			put(math.Float64bits(o.Box.H))
		}
	}
}

// TestGroundCandidatesGoldenDigest pins stage 2's answers, bit for bit and
// on every kernel tier, to a digest recorded before the rerank grounded a
// leg's frames as one stacked forward pass. (amd64 only: math.Exp and
// math.Sin are per-architecture assembly, so other architectures have
// their own bits.)
func TestGroundCandidatesGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digest was recorded on amd64")
	}
	const golden = 0x9c0de8f00b4c1ea6
	s, texts, legs := rerankLegs(t)
	orig := mat.KernelTier()
	defer mat.SetKernelTier(orig)
	for _, tier := range mat.KernelTiers() {
		if _, err := mat.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var frames, grounded int
		for _, text := range texts {
			for _, leg := range legs {
				gs := s.GroundCandidates(context.Background(), text, leg, 1)
				for _, g := range gs {
					frames++
					if g.Grounds {
						grounded++
					}
				}
				groundingDigest(gs, h)
			}
		}
		if got := h.Sum64(); got != golden {
			t.Errorf("%s: digest over %d refs (%d grounded) = %#x, recorded %#x", tier, frames, grounded, got, uint64(golden))
		}
	}
}

// TestGroundCandidatesIdenticalAcrossWorkers pins that how a leg is cut
// into chunks never shows in its answer.
func TestGroundCandidatesIdenticalAcrossWorkers(t *testing.T) {
	s, texts, legs := rerankLegs(t)
	if testing.Short() {
		texts = texts[:2]
	}
	for _, text := range texts {
		for li, leg := range legs {
			want := s.GroundCandidates(context.Background(), text, leg, 1)
			for _, w := range []int{2, 3, 16} {
				if got := s.GroundCandidates(context.Background(), text, leg, w); !reflect.DeepEqual(got, want) {
					t.Fatalf("%q leg %d: %d workers diverge from one\none: %+v\n%d:   %+v", text, li, w, want, w, got)
				}
			}
		}
	}
}

// TestSelectForRerankEdgeCases covers the stage-2 budget selection: empty
// input, a budget covering everything (input returned as-is), a disabled
// budget, and single-frame videos — which can never be "temporally close"
// to one another, so diversity deferral must not drop them.
func TestSelectForRerankEdgeCases(t *testing.T) {
	if got := SelectForRerank(nil, 4); len(got) != 0 {
		t.Fatalf("empty refs select %v", got)
	}
	refs := []FrameRef{{VideoID: 0, FrameIdx: 0}, {VideoID: 0, FrameIdx: 1}, {VideoID: 1, FrameIdx: 0}}
	if got := SelectForRerank(refs, 10); !reflect.DeepEqual(got, refs) {
		t.Fatalf("budget above candidate count must keep all in order: %v", got)
	}
	if got := SelectForRerank(refs, 0); !reflect.DeepEqual(got, refs) {
		t.Fatalf("budget 0 disables the cut: %v", got)
	}
	// Ten single-frame videos: all temporally distinct, so the cut is a
	// plain prefix of the budget size.
	var singles []FrameRef
	for v := 0; v < 10; v++ {
		singles = append(singles, FrameRef{VideoID: v, FrameIdx: 0})
	}
	got := SelectForRerank(singles, 6)
	if !reflect.DeepEqual(got, singles[:6]) {
		t.Fatalf("single-frame videos must fill the budget in order: %v", got)
	}
	// Adjacent frames of one video defer to distinct moments first.
	clustered := []FrameRef{
		{VideoID: 0, FrameIdx: 0}, {VideoID: 0, FrameIdx: 1},
		{VideoID: 0, FrameIdx: 40}, {VideoID: 0, FrameIdx: 41},
	}
	got = SelectForRerank(clustered, 2)
	want := []FrameRef{{VideoID: 0, FrameIdx: 0}, {VideoID: 0, FrameIdx: 40}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("diversity selection got %v, want %v", got, want)
	}
}
