// Package vit implements the visual-patch processing and object
// localisation pipeline of Sections IV-B and IV-C: each keyframe is divided
// into an S×S patch grid, every patch is encoded into a D-dim embedding,
// lightweight heads predict a refined bounding box (anchor + offset) and a
// reduced D′ class embedding per patch token, and low-objectness background
// tokens are filtered before indexing.
//
// The box-refinement MLP stands in for Owl-ViT's trained localisation head:
// its predictions equal the true object box plus bounded, deterministic
// jitter (a calibrated trained-head error model), because an untrained
// random MLP would predict noise and no retrieval experiment could run.
// DESIGN.md documents this substitution.
package vit

import (
	"math/rand/v2"

	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/simwork"
	"repro/internal/video"
)

// Config parameterises frame encoding.
type Config struct {
	// GridW, GridH give the patch grid resolution. Zero values default
	// to 16×9 (a 32-pixel patch size at 512×288 analysis resolution).
	GridW, GridH int
	// Encoder is the vision encoder producing patch embeddings.
	Encoder *embed.VisionEncoder
}

// The encoder's fixed heads and cost, like the pre-trained ViT they stand
// in for.
const (
	// minObjectness filters background tokens.
	minObjectness = 0.5
	// boxJitter is the localisation error σ as a fraction of object size.
	boxJitter = 0.05
	// encodeCost is the simulated ViT forward-pass cost per patch in
	// simwork units, calibrated so one-time video processing dominates
	// query latency the way the paper's Fig. 9 time distribution shows.
	encodeCost = 220
)

func (c Config) withDefaults() Config {
	if c.GridW == 0 {
		c.GridW = 16
	}
	if c.GridH == 0 {
		c.GridH = 9
	}
	return c
}

// Patches returns the total patch count per frame.
func (c Config) Patches() int {
	c = c.withDefaults()
	return c.GridW * c.GridH
}

// Token is one foreground patch token: the per-patch output of the encoder
// plus the localisation heads, ready for indexing.
type Token struct {
	// Patch is the patch index within the frame (row-major).
	Patch int
	// Embedding is the D-dim patch embedding z_jk.
	Embedding mat.Vec
	// Class is the D′-dim projected class embedding c_jk that the vector
	// database indexes.
	Class mat.Vec
	// Box is the predicted bounding box (anchor refined by the MLP head).
	Box video.Box
	// Objectness is the confidence that the patch covers an object.
	Objectness float32
	// Track records which ground-truth object produced the token; it is
	// used only by evaluation code, never by retrieval.
	Track int64
}

// anchor returns the default box b^default for a patch (the patch's own
// spatial extent), per Section IV-C.
func anchor(cfg Config, patch int) video.Box {
	px := patch % cfg.GridW
	py := patch / cfg.GridW
	return video.Box{
		X: float64(px) / float64(cfg.GridW),
		Y: float64(py) / float64(cfg.GridH),
		W: 1 / float64(cfg.GridW),
		H: 1 / float64(cfg.GridH),
	}
}

// EncodeFrame runs the full patch pipeline on a frame and returns the
// foreground tokens. Work is proportional to the total patch count — the
// per-frame processing cost the paper measures at ~constant seconds/frame —
// because background patches are encoded before being filtered.
func EncodeFrame(cfg Config, f *video.Frame) []Token {
	cfg = cfg.withDefaults()
	simwork.Burn(cfg.GridW * cfg.GridH * encodeCost)
	tokens := make([]Token, 0, len(f.Objects)*2)
	covered := make([]bool, len(f.Objects))
	emit := func(p int, objIdx int, rng *rand.Rand) {
		o := &f.Objects[objIdx]
		emb := cfg.Encoder.ObjectEmbedding(f, objIdx)
		objness := float32(0.75 + 0.2*rng.Float64())
		if objness < minObjectness {
			return
		}
		covered[objIdx] = true
		tokens = append(tokens, Token{
			Patch:      p,
			Embedding:  emb,
			Class:      cfg.Encoder.Space.Project(emb),
			Box:        refineBox(o.Box, rng),
			Objectness: objness,
			Track:      o.Track,
		})
	}
	for p := 0; p < cfg.GridW*cfg.GridH; p++ {
		a := anchor(cfg, p)
		cx, cy := a.Center()
		// Assign the patch to the smallest object whose box contains
		// the patch centre (most specific wins).
		best := -1
		bestArea := 2.0
		for i := range f.Objects {
			b := f.Objects[i].Box
			if cx >= b.X && cx <= b.X+b.W && cy >= b.Y && cy <= b.Y+b.H {
				if area := b.Area(); area < bestArea {
					best, bestArea = i, area
				}
			}
		}
		if best < 0 {
			// Background: encode (cost parity), then filter: its
			// objectness, below 0.18, never reaches minObjectness.
			_ = cfg.Encoder.BackgroundEmbedding(f, p)
			continue
		}
		seed := obsSeed(f, p)
		emit(p, best, rand.New(rand.NewPCG(seed, seed^0xfeed)))
	}
	// Centre sampling: an object smaller than a patch cell can straddle
	// the grid so that no patch centre falls inside its box, making it
	// permanently invisible. Detection heads anchor every object to the
	// patch containing its centre (FCOS-style centre sampling); the
	// anchor token is distinguished by an offset patch index so its join
	// key stays unique.
	usedAnchors := make(map[int]bool)
	for i := range f.Objects {
		if covered[i] {
			continue
		}
		cx, cy := f.Objects[i].Box.Center()
		px := int(cx * float64(cfg.GridW))
		py := int(cy * float64(cfg.GridH))
		if px >= cfg.GridW {
			px = cfg.GridW - 1
		}
		if py >= cfg.GridH {
			py = cfg.GridH - 1
		}
		p := py*cfg.GridW + px + centerAnchorOffset
		// Two sub-cell objects can share a centre cell; probe to the
		// next free anchor slot so patch IDs stay unique.
		for usedAnchors[p] {
			p++
			if p >= 2*centerAnchorOffset {
				p = centerAnchorOffset
			}
		}
		usedAnchors[p] = true
		seed := obsSeed(f, p)
		rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
		emit(p, i, rng)
	}
	return tokens
}

// centerAnchorOffset displaces the patch index of centre-sampled anchor
// tokens past the regular grid range so patch IDs remain unique. It stays
// within the 12-bit patch field of core.PackPatchID.
const centerAnchorOffset = 2048

// MaxGridPatches is the largest GridW*GridH a Config may use: regular patch
// indices must stay below centerAnchorOffset so centre-sampled anchor tokens
// cannot collide with them, and the anchor range itself tops out at
// 2*centerAnchorOffset-1, the last value of the 12-bit packed patch field.
const MaxGridPatches = centerAnchorOffset

// refineBox applies the trained-head error model: the true box perturbed by
// bounded jitter proportional to its size, clipped to the frame.
func refineBox(b video.Box, rng *rand.Rand) video.Box {
	j := func(scale float64) float64 { return rng.NormFloat64() * boxJitter * scale }
	out := video.Box{
		X: b.X + j(b.W),
		Y: b.Y + j(b.H),
		W: b.W * (1 + j(1)),
		H: b.H * (1 + j(1)),
	}
	if out.W < 0.004 {
		out.W = 0.004
	}
	if out.H < 0.004 {
		out.H = 0.004
	}
	return out.Clip()
}

func obsSeed(f *video.Frame, patch int) uint64 {
	return uint64(f.VideoID)<<40 ^ uint64(uint32(f.Index))<<12 ^ uint64(uint32(patch)) ^ 0x9e37
}
