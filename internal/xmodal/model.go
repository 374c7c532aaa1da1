package xmodal

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/video"
	"repro/internal/vocab"
)

// Config seeds the cross-modality transformer.
type Config struct {
	// Seed drives weights and noise.
	Seed uint64
}

// The region tokens' observation noise, fixed like the pre-trained
// grounding model it stands in for.
const (
	// tokenNoise is the per-region-token observation noise σ.
	tokenNoise = 0.05
	// relationDropout is the probability a relation token goes
	// unobserved: rerank is strong, not perfect.
	relationDropout = 0.08
)

// Model is the cross-modality transformer: one feature-enhancer layer and
// one decoder layer.
type Model struct {
	space    *embed.Space
	seed     uint64
	enhancer *enhancerLayer
	decoder  *enhancerLayer
	posProj  *mat.Matrix // 8 -> D positional projection
}

// New builds a model over the shared embedding space.
func New(space *embed.Space, cfg Config) *Model {
	return &Model{
		space:    space,
		seed:     cfg.Seed,
		enhancer: newEnhancerLayer(space.Dim, cfg.Seed),
		decoder:  newEnhancerLayer(space.Dim, cfg.Seed+0xdec0),
		posProj:  mat.RandGaussian(space.Dim, 8, 1.0/8, cfg.Seed^0x905e),
	}
}

// Grounding is one grounded object in a reranked frame.
type Grounding struct {
	// ObjectIdx indexes the frame's object list.
	ObjectIdx int
	// Box is the grounded bounding box.
	Box video.Box
	// Score is the cross-modality alignment score; higher is better.
	Score float32
}

// posEncoding computes the box positional feature — sinusoids of the
// centre, width and height projected into the embedding dimension — into an
// arena-backed vector.
func (m *Model) posEncoding(ar *mat.Arena, b video.Box) mat.Vec {
	cx, cy := b.Center()
	raw := ar.Vec(8) // in the arena: a stack array would escape through the kernel dispatch
	raw[0], raw[1] = float32(math.Sin(2*math.Pi*cx)), float32(math.Cos(2*math.Pi*cx))
	raw[2], raw[3] = float32(math.Sin(2*math.Pi*cy)), float32(math.Cos(2*math.Pi*cy))
	raw[4], raw[5] = float32(b.W), float32(b.H)
	raw[6], raw[7] = float32(math.Sin(4*math.Pi*cx)), float32(math.Cos(4*math.Pi*cy))
	return mat.MatVecInto(ar.Vec(m.posProj.Rows), m.posProj, raw)
}

// tokenSeed hashes (seed, track, frame, prefix+term) into a per-token noise
// seed; prefix and term are written back to back, so no concatenated
// string is ever built.
func tokenSeed(seed uint64, track int64, frame int, prefix, term string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		_, _ = h.Write(b[:])
	}
	put(seed)
	put(uint64(track))
	put(uint64(uint32(frame)))
	_, _ = h.Write([]byte(prefix))
	_, _ = h.Write([]byte(term))
	return h.Sum64()
}

// regionTok is one image-side token: a unit feature vector, the object it
// was observed on, and an evidence weight. Weights survive the
// transformer's layer norms by applying at scoring time: a term observed on
// a neighbour (weight 0.85) can never beat the same term observed on the
// object itself.
type regionTok struct {
	vec    mat.Vec
	owner  int
	weight float32
}

// groundScratch is GroundFrames' per-call bookkeeping that is not float32
// data (that lives in the mat.Arena): the stack's token list, each
// grounded frame's index and row segment, the per-object and per-term
// marks, and ONE noise generator re-seeded in place for every token —
// rand.New(rand.NewPCG(a, b)) per token draws the same stream and costs
// two heap objects each time.
type groundScratch struct {
	pcg    rand.PCG
	rng    *rand.Rand // over pcg
	toks   []regionTok
	frames []int // index into GroundFrames' frames, per stacked frame
	is, ts []seg // region and text rows, per stacked frame
	seen   []bool
	seenNb map[string]bool
}

var groundScratchPool = sync.Pool{New: func() any {
	sc := &groundScratch{seenNb: make(map[string]bool)}
	sc.rng = rand.New(&sc.pcg)
	return sc
}}

// regionTokens appends the fine-grained token set for object i of frame f
// to sc.toks: one noisy token per ground-truth term (including spatial
// relations, which single-object embeddings cannot carry), neighbour terms
// at reduced weight (supporting relational queries such as Q3.4), and a
// box positional component folded into every token.
func (m *Model) regionTokens(ar *mat.Arena, sc *groundScratch, f *video.Frame, i int) {
	o := &f.Objects[i]
	pos := m.posEncoding(ar, o.Box)

	appendTok := func(term string, weight float32) {
		seed := tokenSeed(m.seed, o.Track, f.Index, "", term)
		sc.pcg.Seed(seed, seed^0x70c5)
		base := m.space.TermVec(term)
		v := ar.Vec(m.space.Dim)
		mat.Axpy(v, 1, base)
		mat.Axpy(v, 0.12, pos)
		for d := range v {
			v[d] += float32(sc.rng.NormFloat64() * tokenNoise)
		}
		sc.toks = append(sc.toks, regionTok{vec: mat.Normalize(v), owner: i, weight: weight})
	}

	for _, term := range f.ObjectTerms(i) {
		if isRelationTerm(term) {
			seed := tokenSeed(m.seed, o.Track, f.Index, "drop:", term)
			sc.pcg.Seed(seed, seed^0xd20b)
			if sc.rng.Float64() < relationDropout {
				continue
			}
		}
		appendTok(term, 1)
	}
	// Neighbour context: the two nearest related objects contribute
	// their class and appearance terms at reduced weight, bounding the
	// token budget while still supporting relational queries like Q3.4.
	neighbors := f.Neighbors(i)
	if len(neighbors) > 2 {
		sort.Slice(neighbors, func(a, b int) bool {
			return o.Box.CenterDist(f.Objects[neighbors[a]].Box) < o.Box.CenterDist(f.Objects[neighbors[b]].Box)
		})
		neighbors = neighbors[:2]
	}
	clear(sc.seenNb)
	appendNb := func(term string) {
		if !sc.seenNb[term] {
			sc.seenNb[term] = true
			appendTok(term, 0.85)
		}
	}
	for _, j := range neighbors {
		nb := &f.Objects[j]
		appendNb(nb.Class)
		for _, term := range nb.Attrs {
			appendNb(term)
		}
	}
}

// textTokenWeight returns the importance of a query token in the MaxSim
// aggregation. Fine distinctions — attributes and spatial relations — carry
// the most discriminative power (they are what the rerank stage exists to
// recover); the primary subject anchors the grounding; scene context, which
// every candidate frame shares, carries little.
func textTokenWeight(k vocab.Kind, primary bool) float32 {
	if primary {
		return 1.6
	}
	switch k {
	case vocab.KindColor, vocab.KindSize, vocab.KindClothing:
		return 1.2
	case vocab.KindRelation:
		return 1.3
	case vocab.KindBehavior:
		return 0.8
	case vocab.KindContext:
		return 0.6
	default:
		return 1.0
	}
}

// firstClassIdx locates the query's primary subject token.
func firstClassIdx(toks []embed.Token) int {
	for i, t := range toks {
		if t.Kind == vocab.KindClass {
			return i
		}
	}
	return -1
}

func isRelationTerm(term string) bool {
	switch term {
	case "side by side", "next to", "center of the road", "holding", "filled with":
		return true
	}
	return false
}

// GroundFrame scores every object of the frame against the query tokens and
// returns groundings sorted by descending score. It is GroundFrames of
// one frame.
func (m *Model) GroundFrame(f *video.Frame, toks []embed.Token) []Grounding {
	gs, _ := m.GroundFrames([]*video.Frame{f}, toks)
	return gs[0]
}

// GroundFrames grounds a leg's candidate frames against the query tokens in
// one stacked forward pass and returns, per frame, its groundings sorted by
// descending score (nil for a frame with no objects, or for every frame
// when toks is empty), plus the number of region tokens the stack held.
// Every frame's groundings are bit-identical to GroundFrame's on that
// frame alone.
//
// This is stage 2 of Algorithm 2: region and text tokens pass through the
// feature-enhancer's bidirectional cross-attention and the decoder, then
// each object scores as the mean over text tokens of its best-aligned
// region token — every query term must find visual support, so missing
// attributes or relations depress the score. All frames' region tokens
// form one matrix, a row segment per frame, so the per-token maps
// (projections, feed-forward blocks, residual layer norms) run once over
// the stack while attention stays within each frame (enhancerLayer.apply).
func (m *Model) GroundFrames(frames []*video.Frame, toks []embed.Token) (out [][]Grounding, tokens int) {
	out = make([][]Grounding, len(frames))
	if len(toks) == 0 {
		return out, 0
	}
	// Every temporary of the forward pass — region tokens, layer
	// activations, attention scores, the similarity matrix — shares the
	// stack's lifetime, so one arena serves the whole pass and the
	// steady-state rerank stops allocating.
	ar := mat.GetArena()
	defer ar.Release()

	// Assemble the stack's region-token matrix with object attribution
	// and per-token evidence weights; a frame without tokens grounds
	// nothing and takes no rows.
	sc := groundScratchPool.Get().(*groundScratch)
	defer groundScratchPool.Put(sc)
	sc.toks, sc.frames, sc.is, sc.ts = sc.toks[:0], sc.frames[:0], sc.is[:0], sc.ts[:0]
	nObjs, maxObj := 0, 0
	for fi, f := range frames {
		off := len(sc.toks)
		for i := range f.Objects {
			m.regionTokens(ar, sc, f, i)
		}
		if n := len(sc.toks) - off; n > 0 {
			sc.frames = append(sc.frames, fi)
			sc.is = append(sc.is, seg{off, n})
			sc.ts = append(sc.ts, seg{0, len(toks)}) // the shared raw text
			nObjs += len(f.Objects)
			maxObj = max(maxObj, len(f.Objects))
		}
	}
	rtoks := sc.toks
	if len(rtoks) == 0 {
		return out, 0
	}
	dim := m.space.Dim
	xi := ar.MatrixUninit(len(rtoks), dim)
	for i, rt := range rtoks {
		copy(xi.Row(i), rt.vec)
	}
	tweights := ar.Vec(len(toks))
	primaryIdx := firstClassIdx(toks)
	xt := ar.MatrixUninit(len(toks), dim)
	for i, t := range toks {
		copy(xt.Row(i), t.Vec)
		tweights[i] = textTokenWeight(t.Kind, i == primaryIdx)
	}

	is, ts := sc.is, sc.ts
	for _, l := range [2]*enhancerLayer{m.enhancer, m.decoder} {
		xt = l.apply(ar, xi, is, xt, ts)
		for f := range ts { // the text side is per frame from the first layer on
			ts[f] = seg{f * len(toks), len(toks)}
		}
	}

	// Per-object MaxSim aggregation over the enhanced features, on
	// cosine similarity: layer norm fixes row norms to √D, so raw dot
	// products would be dominated by shared structure.
	for i := 0; i < xi.Rows; i++ {
		mat.Normalize(xi.Row(i))
	}
	for i := 0; i < xt.Rows; i++ {
		mat.Normalize(xt.Row(i))
	}
	sim := ar.MatrixUninit(len(toks), xi.Rows).Data
	scores := ar.Vec(maxObj)
	wsums := ar.Vec(maxObj)
	primaryBest := ar.Vec(maxObj)
	best := ar.Vec(maxObj)
	sc.seen = append(sc.seen[:0], make([]bool, maxObj)...)
	// One backing array holds every frame's groundings.
	all := make([]Grounding, 0, nObjs)
	for sf, fi := range sc.frames {
		f, si, st := frames[fi], is[sf], ts[sf]
		ftoks := rtoks[si.off : si.off+si.n]
		nObj := len(f.Objects)
		// (text tokens) × (region tokens) cosine similarities
		fsim := sim[:st.n*si.n]
		for ti := 0; ti < st.n; ti++ {
			mat.ScoreRows(fsim[ti*si.n:(ti+1)*si.n], xt.Row(st.off+ti), xi.Data[si.off*dim:(si.off+si.n)*dim], dim)
		}
		clear(scores[:nObj])
		clear(wsums[:nObj])
		clear(primaryBest[:nObj])
		seen := sc.seen[:nObj]
		for ti := 0; ti < st.n; ti++ {
			row := fsim[ti*si.n : (ti+1)*si.n]
			for o := 0; o < nObj; o++ {
				best[o] = 0
				seen[o] = false
			}
			for ri, s := range row {
				s *= ftoks[ri].weight
				o := ftoks[ri].owner
				if !seen[o] || s > best[o] {
					best[o], seen[o] = s, true
				}
			}
			tw := tweights[ti]
			for o := 0; o < nObj; o++ {
				if seen[o] {
					//lovo:kernel-ok fixed-order per-object gather over terms, not a dot-product reduction; term order is the slice order, already deterministic
					scores[o] += float32(tw * best[o]) // rounded product: no FMA contraction on arm64
					wsums[o] += tw
					if ti == primaryIdx {
						primaryBest[o] = best[o]
					}
				}
			}
		}
		start := len(all)
		for o := 0; o < nObj; o++ {
			if wsums[o] == 0 {
				continue
			}
			score := scores[o] / wsums[o]
			// Head-noun anchoring: an object whose own evidence for the
			// query's primary subject is weak (neighbour-level at best) is
			// a poor grounding however well its other terms align — the
			// woman next to the white dog is not the dog.
			if primaryIdx >= 0 {
				if factor := primaryBest[o] / 0.85; factor < 1 {
					if factor < 0 {
						factor = 0
					}
					score *= factor
				}
			}
			all = append(all, Grounding{
				ObjectIdx: o,
				Box:       f.Objects[o].Box,
				Score:     score,
			})
		}
		g := all[start:len(all):len(all)]
		// Sort descending, deterministic tie-break on object index.
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if g[j].Score > g[i].Score ||
					(g[j].Score == g[i].Score && g[j].ObjectIdx < g[i].ObjectIdx) {
					g[i], g[j] = g[j], g[i]
				}
			}
		}
		out[fi] = g
	}
	return out, len(rtoks)
}

// TokenWork estimates the attention work (token-pair products) GroundFrame
// performs for a frame with n region tokens and t text tokens; used by the
// rerank-scalability experiment.
func (m *Model) TokenWork(n, t int) int {
	const layers = 2 // the enhancer and the decoder
	return layers * n * t * m.space.Dim
}
