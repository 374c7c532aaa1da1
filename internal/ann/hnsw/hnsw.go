// Package hnsw implements a hierarchical navigable small-world graph index,
// the graph-based variant of Table V. Construction inserts each vector at a
// geometrically sampled level, connecting it to its M best neighbours found
// by a beam search (efConstruction); queries greedily descend the hierarchy
// and run a beam search (efSearch) on the ground layer.
//
// Similarity is the inner product over unit vectors, so "nearest" means
// highest dot product throughout.
//
// Node i is row i of the borrowed ann.Rows, so neighbour expansion walks
// the collection's packed rows and the graph holds only levels and links;
// Params.Exhaustive is the shared ann.Rows.TopK scan. Per-search scratch —
// the epoch-stamped visited set, the frontier, the candidate list — comes
// from a pool, so steady-state searches allocate only their result slice.
package hnsw

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"repro/internal/ann"
	"repro/internal/mat"
)

// Config shapes the graph.
type Config struct {
	// M is the per-node out-degree target above level 0 (level 0 allows
	// 2M). Zero defaults to 16; values below 2 clamp to 2, where the
	// level multiplier 1/ln M is still finite.
	M int
	// EfConstruction is the construction beam width; zero defaults
	// to 100.
	EfConstruction int
	// Seed drives level sampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	c.M = max(c.M, 2)
	if c.EfConstruction <= 0 {
		c.EfConstruction = 100
	}
	return c
}

// node is the graph record of the row with the same position.
type node struct {
	level int
	// links[l] lists neighbour node indices at level l.
	links [][]int32
}

// Index is an HNSW graph over borrowed rows.
type Index struct {
	rows  *ann.Rows
	cfg   Config
	mL    float64
	rng   *rand.Rand
	nodes []node
	entry int32 // index of the top entry point, -1 when empty
	maxL  int

	ctxPool sync.Pool // *searchCtx
}

var _ ann.Index = (*Index)(nil)

// New returns a graph over every row currently in rows, inserted in row
// order.
func New(rows *ann.Rows, cfg Config) *Index {
	cfg = cfg.withDefaults()
	h := &Index{
		rows: rows,
		cfg:  cfg,
		mL:   1 / math.Log(float64(cfg.M)),
		//lovo:nondeterministic-ok PCG seeded purely from cfg.Seed: level draws are a deterministic function of config, identical on every replica
		rng:   rand.New(rand.NewPCG(cfg.Seed^0x4e57, cfg.Seed^0x5357)),
		entry: -1,
	}
	for i := 0; i < rows.Len(); i++ {
		h.Add(i)
	}
	return h
}

// Kind implements ann.Index.
func (h *Index) Kind() string { return "hnsw" }

// Len implements ann.Index.
func (h *Index) Len() int { return len(h.nodes) }

// vecAt returns node i's vector, aliasing the borrowed rows.
func (h *Index) vecAt(i int32) mat.Vec { return h.rows.Row(int(i)) }

func (h *Index) maxDegree(level int) int {
	if level == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// searchCtx is the reusable per-search scratch: an epoch-stamped visited
// set (one counter bump invalidates the whole array — no clearing, no
// per-search map), the exploration frontier, and the candidate buffer.
type searchCtx struct {
	visited []uint32
	epoch   uint32
	front   []cand
	cands   []cand
}

// nextEpoch invalidates the visited set by advancing the stamp; on the
// (rare) counter wrap the stale array is cleared so old stamps cannot read
// as visited.
func (c *searchCtx) nextEpoch() {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.visited {
			c.visited[i] = 0
		}
		c.epoch = 1
	}
}

// getCtx checks a search context out of the pool, sized to the current
// node count.
func (h *Index) getCtx() *searchCtx {
	c, _ := h.ctxPool.Get().(*searchCtx)
	if c == nil {
		c = &searchCtx{}
	}
	if len(c.visited) < len(h.nodes) {
		c.visited = make([]uint32, len(h.nodes)+len(h.nodes)/2+8)
		c.epoch = 0
	}
	c.nextEpoch()
	return c
}

func (h *Index) putCtx(c *searchCtx) { h.ctxPool.Put(c) }

// Add implements ann.Index.
func (h *Index) Add(row int) {
	if row != len(h.nodes) {
		panic(fmt.Sprintf("hnsw: Add row %d, want %d", row, len(h.nodes)))
	}
	level := int(math.Floor(-math.Log(1-h.rng.Float64()) * h.mL))
	idx := int32(row)
	h.nodes = append(h.nodes, node{level: level, links: make([][]int32, level+1)})

	if h.entry < 0 {
		h.entry = idx
		h.maxL = level
		return
	}

	q := h.vecAt(idx)
	ep := h.entry
	// Greedy descent through levels above the insertion level.
	for l := h.maxL; l > level; l-- {
		ep = h.greedyClosest(q, ep, l)
	}
	// Beam search and connect on each level from min(level, maxL) down.
	startL := level
	if startL > h.maxL {
		startL = h.maxL
	}
	ctx := h.getCtx()
	for l := startL; l >= 0; l-- {
		cands := h.searchLayer(q, ep, h.cfg.EfConstruction, l, ctx)
		m := h.maxDegree(l)
		selected := h.selectNeighbors(cands, m)
		for _, s := range selected {
			h.link(idx, s, l)
			h.link(s, idx, l)
			h.prune(s, l)
		}
		if len(cands) > 0 {
			ep = cands[0].idx
		}
		ctx.nextEpoch() // next layer starts with a fresh visited set
	}
	h.putCtx(ctx)
	if level > h.maxL {
		h.maxL = level
		h.entry = idx
	}
}

type cand struct {
	idx int32
	sim float32
}

// greedyClosest walks level l greedily toward the query.
func (h *Index) greedyClosest(q mat.Vec, ep int32, l int) int32 {
	best := ep
	bestSim := mat.Dot(q, h.vecAt(ep))
	for {
		improved := false
		for _, nb := range h.linksAt(best, l) {
			if s := mat.Dot(q, h.vecAt(nb)); s > bestSim {
				best, bestSim = nb, s
				improved = true
			}
		}
		if !improved {
			return best
		}
	}
}

func (h *Index) linksAt(idx int32, l int) []int32 {
	n := &h.nodes[idx]
	if l > n.level {
		return nil
	}
	return n.links[l]
}

// searchLayer runs a beam search of width ef on level l starting from ep,
// returning candidates in descending similarity order. The returned slice
// aliases ctx and is valid until the context's next use.
func (h *Index) searchLayer(q mat.Vec, ep int32, ef, l int, ctx *searchCtx) []cand {
	ctx.visited[ep] = ctx.epoch
	epSim := mat.Dot(q, h.vecAt(ep))
	// frontier: max-first exploration queue; result: bounded best set.
	frontier := append(ctx.front[:0], cand{ep, epSim})
	result := mat.GetTopK(ef)
	defer mat.PutTopK(result)
	result.Push(int64(ep), epSim)

	for len(frontier) > 0 {
		// Pop the most similar frontier element.
		bi := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i].sim > frontier[bi].sim {
				bi = i
			}
		}
		cur := frontier[bi]
		frontier[bi] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		if cur.sim < result.Threshold() && result.Len() >= ef {
			break
		}
		for _, nb := range h.linksAt(cur.idx, l) {
			if ctx.visited[nb] == ctx.epoch {
				continue
			}
			ctx.visited[nb] = ctx.epoch
			s := mat.Dot(q, h.vecAt(nb))
			if s > result.Threshold() || result.Len() < ef {
				result.Push(int64(nb), s)
				frontier = append(frontier, cand{nb, s})
			}
		}
	}
	ctx.front = frontier[:0]
	sorted := result.Sorted()
	out := ctx.cands[:0]
	for _, s := range sorted {
		out = append(out, cand{int32(s.ID), s.Score})
	}
	ctx.cands = out
	return out
}

// selectNeighbors applies the diversity heuristic: a candidate is kept only
// if it is closer to the query point than to any already-selected
// neighbour, which keeps edges spread across directions.
func (h *Index) selectNeighbors(cands []cand, m int) []int32 {
	var selected []int32
	for _, c := range cands {
		if len(selected) >= m {
			break
		}
		ok := true
		cv := h.vecAt(c.idx)
		for _, s := range selected {
			if mat.Dot(cv, h.vecAt(s)) > c.sim {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, c.idx)
		}
	}
	// Fill remaining slots with the best rejected candidates.
	if len(selected) < m {
		chosen := make(map[int32]bool, len(selected))
		for _, s := range selected {
			chosen[s] = true
		}
		for _, c := range cands {
			if len(selected) >= m {
				break
			}
			if !chosen[c.idx] {
				selected = append(selected, c.idx)
			}
		}
	}
	return selected
}

func (h *Index) link(from, to int32, l int) {
	if from == to {
		return
	}
	n := &h.nodes[from]
	if l > n.level {
		return
	}
	for _, nb := range n.links[l] {
		if nb == to {
			return
		}
	}
	n.links[l] = append(n.links[l], to)
}

// prune trims a node's adjacency to the degree bound, keeping the most
// similar neighbours.
func (h *Index) prune(idx int32, l int) {
	n := &h.nodes[idx]
	if l > n.level {
		return
	}
	maxD := h.maxDegree(l)
	if len(n.links[l]) <= maxD {
		return
	}
	top := mat.GetTopK(maxD)
	defer mat.PutTopK(top)
	nv := h.vecAt(idx)
	for _, nb := range n.links[l] {
		top.Push(int64(nb), mat.Dot(nv, h.vecAt(nb)))
	}
	kept := top.Sorted()
	n.links[l] = n.links[l][:0]
	for _, k := range kept {
		n.links[l] = append(n.links[l], int32(k.ID))
	}
}

// Search implements ann.Index.
func (h *Index) Search(q mat.Vec, k int, p ann.Params) []mat.Scored {
	if k <= 0 || len(h.nodes) == 0 {
		return nil
	}
	if p.Exhaustive {
		return h.rows.TopK(q, k)
	}
	ef := p.Ef
	if ef <= 0 {
		ef = 64
	}
	if ef < k {
		ef = k
	}
	ep := h.entry
	for l := h.maxL; l > 0; l-- {
		ep = h.greedyClosest(q, ep, l)
	}
	ctx := h.getCtx()
	defer h.putCtx(ctx)
	cands := h.searchLayer(q, ep, ef, 0, ctx)
	out := make([]mat.Scored, 0, min(k, len(cands)))
	for i := 0; i < len(cands) && i < k; i++ {
		out = append(out, mat.Scored{ID: h.rows.ID(int(cands[i].idx)), Score: cands[i].sim})
	}
	return out
}

// Memory implements ann.Index: per-node level and links.
func (h *Index) Memory() int64 {
	var b int64
	for i := range h.nodes {
		b += 8
		for _, l := range h.nodes[i].links {
			b += int64(len(l)) * 4
		}
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
