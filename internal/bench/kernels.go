package bench

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/quant"
	"repro/internal/query"
	"repro/internal/vectordb"
	"repro/internal/video"
	"repro/internal/xmodal"
)

func init() {
	register("kernels", kernelsExperiment)
}

// kernelsExperiment measures the vectorized scoring kernels against the
// seed's scalar implementations, then the end-to-end effect on query
// latency. Five sections in one table:
//
//   - microkernels: ns/op and allocs/op for Dot, ScoreRows, MatMul, the PQ
//     table build and the batch ADC scan, each against a faithful
//     re-implementation of the pre-kernel scalar code; the GEMM at the
//     rerank's projection shape once per kernel tier, and one whole rerank
//     forward pass (xmodal.GroundFrame) on the portable kernels vs the
//     widest tier; GELU once per tier against the portable loop, and one
//     leg of 8 frames grounded frame by frame vs as one stacked pass
//     (xmodal.GroundFrames);
//   - tier sweep: mat.ScoreRows over an L1-resident block, avx2 against
//     sse2, at the system's 32d and at a compute-bound 128d — the ≥1.5x
//     avx2-over-sse2 acceptance gate reads the 128d pair, because at 32d
//     the per-row horizontal fold and loop bookkeeping cap what wider
//     lanes can buy, and beyond L1 both tiers converge on cache bandwidth;
//   - flat scan per tier: the stage-1 full scan ann.Rows.TopK (score every
//     vector, keep top-k) at several collection sizes, measured once per
//     supported kernel tier (avx2/sse2/neon/purego) against the seed scalar
//     scan — the acceptance gate is ≥2x for the widest tier over the seed;
//     the scan is selection-bound at 32d (top-k heap + threshold gate), so
//     tier-vs-tier gaps converge here by design;
//   - batched scan: ann.Rows.TopKBatch (the exact scan every index's
//     exhaustive mode and the flat kind run) at Q=2/4/8 queries per sweep
//     against Q lone TopK scans — CI gates Q=8 at ≥1.15x;
//   - end-to-end: p50/p99 query latency of full LOVO systems at several
//     dataset scales and index kinds, all running on the kernel layer.
//
// Reference implementations live in this file so the comparison stays
// runnable after the old code is gone.
func kernelsExperiment(o Options) (*Table, error) {
	t := &Table{
		ID:     "kernels",
		Title:  "Vectorized scoring kernels vs scalar baselines",
		Header: []string{"benchmark", "baseline", "kernels", "speedup", "allocs/op"},
	}

	// Every benchmarked row takes the fastest of `reps` runs: the kernels
	// are deterministic compute, so the minimum is the least
	// noise-contaminated observation — a single 1s run on a shared host
	// swings ±15%, the same order as some of the gaps under measurement.
	// Quick mode (the test suite, which checks the table's shape and not
	// its speedups) times each row once at a fixed small iteration count.
	const reps = 3
	bestOfN := func(reps int, fn func(b *testing.B)) (ns float64, allocs int64) {
		if o.Quick {
			return timeQuick(fn)
		}
		ns = math.Inf(1)
		for r := 0; r < reps; r++ {
			res := testing.Benchmark(fn)
			if v := float64(res.T.Nanoseconds()) / float64(res.N); v < ns {
				ns = v
				allocs = res.AllocsPerOp()
			}
		}
		return ns, allocs
	}
	bestOf := func(fn func(b *testing.B)) (ns float64, allocs int64) {
		return bestOfN(reps, fn)
	}

	micro := func(name string, base, opt func(b *testing.B)) (baseNs, optNs float64, allocs int64) {
		baseNs, _ = bestOf(base)
		optNs, allocs = bestOf(opt)
		t.Add(name,
			fmt.Sprintf("%.0fns", baseNs),
			fmt.Sprintf("%.0fns", optNs),
			fmt.Sprintf("%.2fx", baseNs/optNs),
			fmt.Sprintf("%d", allocs))
		return baseNs, optNs, allocs
	}

	// --- Microkernels ---------------------------------------------------
	const dim = 32
	rng := rand.New(rand.NewPCG(o.Seed, 0x6e5))
	randVec := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}

	qv, rv := randVec(dim), randVec(dim)
	micro("dot 32d",
		func(b *testing.B) {
			var s float32
			for i := 0; i < b.N; i++ {
				s += dotScalarRef(qv, rv)
			}
			_ = s
		},
		func(b *testing.B) {
			var s float32
			for i := 0; i < b.N; i++ {
				s += mat.Dot(qv, rv)
			}
			_ = s
		})

	const rows = 1024
	block := randVec(dim * rows)
	dst := make([]float32, rows)
	micro(fmt.Sprintf("score %d rows 32d", rows),
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					dst[r] = dotScalarRef(qv, block[r*dim:(r+1)*dim])
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mat.ScoreRows(dst, qv, block, dim)
			}
		})

	ma := &mat.Matrix{Rows: 64, Cols: 64, Data: randVec(64 * 64)}
	mb := &mat.Matrix{Rows: 64, Cols: 64, Data: randVec(64 * 64)}
	mc := mat.NewMatrix(64, 64)
	micro("matmul 64x64",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matMulScalarRef(ma, mb)
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mat.MatMulInto(mc, ma, mb)
			}
		})

	// --- GEMM per kernel tier, at the rerank's projection shape ----------
	// 48 region tokens through a 64×64 weight matrix, against the seed's
	// scalar triple loop: the register tiles (avx2 4×16, sse2 4×8) next to
	// the AXPY formulation (purego), all bit-identical.
	ga := &mat.Matrix{Rows: 48, Cols: 64, Data: randVec(48 * 64)}
	gc := mat.NewMatrix(48, 64)
	gemmBaseNs, _ := bestOf(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matMulScalarRef(ga, mb)
		}
	})
	for _, tier := range mat.KernelTiers() {
		prev, err := mat.SetKernelTier(tier)
		if err != nil {
			return nil, err
		}
		ns, allocs := bestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mat.MatMulInto(gc, ga, mb)
			}
		})
		if _, err := mat.SetKernelTier(prev); err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("gemm 48x64x64 [%s]", tier),
			fmt.Sprintf("%.0fns", gemmBaseNs),
			fmt.Sprintf("%.0fns", ns),
			fmt.Sprintf("%.2fx", gemmBaseNs/ns),
			fmt.Sprintf("%d", allocs))
	}

	// --- One rerank forward pass: portable kernels vs the widest tier ----
	gfSpace := embed.NewSpace(64, 32, o.Seed)
	gfModel := xmodal.New(gfSpace, xmodal.Config{Seed: o.Seed})
	gfToks := (&embed.TextEncoder{Space: gfSpace}).Tokens(query.Parse(
		"A red car side by side with another car, both positioned in the center of the road."))
	gfFrame := syntheticFrame(0, 6)
	groundFrame := func(tier string) func(b *testing.B) {
		return func(b *testing.B) {
			prev, err := mat.SetKernelTier(tier)
			if err != nil {
				b.Fatal(err)
			}
			defer mat.SetKernelTier(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gfModel.GroundFrame(gfFrame, gfToks)
			}
		}
	}
	micro(fmt.Sprintf("ground frame [%s]", mat.KernelTier()), groundFrame(mat.TierPurego), groundFrame(mat.KernelTier()))

	// --- GELU per kernel tier, at a feed-forward activation's size ------
	// 48 region tokens × 64 hidden units, against the portable loop (the
	// purego row is that loop against itself); every tier is bit-identical.
	geluIn := randVec(48 * 64)
	geluBuf := make([]float32, len(geluIn))
	geluUnder := func(tier string) func(b *testing.B) {
		return func(b *testing.B) {
			prev, err := mat.SetKernelTier(tier)
			if err != nil {
				b.Fatal(err)
			}
			defer mat.SetKernelTier(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(geluBuf, geluIn)
				mat.GELU(geluBuf)
			}
		}
	}
	for _, tier := range mat.KernelTiers() {
		micro(fmt.Sprintf("gelu %d [%s]", len(geluIn), tier), geluUnder(mat.TierPurego), geluUnder(tier))
	}

	// --- One leg's rerank: 8 frame-by-frame passes vs one stacked pass ---
	legFrames := make([]*video.Frame, 8)
	for i := range legFrames {
		legFrames[i] = syntheticFrame(i, 2+i%4)
	}
	micro("ground leg 8 frames",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, f := range legFrames {
					gfModel.GroundFrame(f, gfToks)
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gfModel.GroundFrames(legFrames, gfToks)
			}
		})

	// PQ table build + list scan against the seed's [][]float32 layout.
	pqData := make([]mat.Vec, 256)
	for i := range pqData {
		pqData[i] = mat.UnitGaussianVec(dim, o.Seed+uint64(3000+i))
	}
	pq, err := trainBenchPQ(pqData)
	if err != nil {
		return nil, err
	}
	pqQuery := mat.UnitGaussianVec(dim, o.Seed+11)
	tableBuf := make([]float32, pq.TableLen())
	micro("pq table build",
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pqTableRef(pq, pqQuery)
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pq.DotTableInto(tableBuf, pqQuery)
			}
		})

	codes := make([]uint16, 0, rows*pq.P)
	for i := 0; i < rows; i++ {
		codes = append(codes, pq.Encode(pqData[i%len(pqData)])...)
	}
	table := pq.DotTableInto(tableBuf, pqQuery)
	refTable := pqTableRef(pq, pqQuery)
	scanDst := make([]float32, rows)
	micro(fmt.Sprintf("pq scan %d codes", rows),
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					var s float32
					for sp := 0; sp < pq.P; sp++ {
						s += refTable[sp][codes[r*pq.P+sp]]
					}
					scanDst[r] = 0.5 + s
				}
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pq.ApproxDotBatch(scanDst, table, codes, 0.5)
			}
		})

	// --- Stage-1 scoring sweep, avx2 vs sse2 (the ≥1.5x gate) -----------
	// The L1-resident ScoreRows sweep isolates the kernels from top-k
	// selection AND from cache bandwidth: on L2-or-larger blocks both
	// tiers converge toward the load ports, so the lane-width gap only
	// shows whole where the rows stream from L1. 32d is the system's
	// embedding width; 128d is wide enough that the 8 lanes spend their
	// time multiplying rather than folding.
	tiers := mat.KernelTiers()
	widest := tiers[0]
	sweepAVX2OverSSE2 := make(map[int]float64)
	if widest == mat.TierAVX2 {
		for _, kd := range []int{dim, 128} {
			kRows := 32 * 1024 / (4 * kd)
			kblock := randVec(kd * kRows)
			kq := randVec(kd)
			kdst := make([]float32, kRows)
			tierNs := make(map[string]float64, 2)
			for _, tier := range []string{mat.TierSSE2, mat.TierAVX2} {
				prev, err := mat.SetKernelTier(tier)
				if err != nil {
					return nil, err
				}
				// The sweep reps are ~1s each and the tier gap under
				// measurement is the same order as host noise, so these
				// rows get triple the repetitions of the heavier sections.
				ns, _ := bestOfN(3*reps, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						mat.ScoreRows(kdst, kq, kblock, kd)
					}
				})
				if _, err := mat.SetKernelTier(prev); err != nil {
					return nil, err
				}
				tierNs[tier] = ns
			}
			sweepAVX2OverSSE2[kd] = tierNs[mat.TierSSE2] / tierNs[mat.TierAVX2]
			t.Add(fmt.Sprintf("sweep %d rows %dd avx2 vs sse2", kRows, kd),
				fmt.Sprintf("%.0fns", tierNs[mat.TierSSE2]),
				fmt.Sprintf("%.0fns", tierNs[mat.TierAVX2]),
				fmt.Sprintf("%.2fx", sweepAVX2OverSSE2[kd]),
				"0")
		}
	}

	// --- Flat-index full scan, per kernel tier (the ≥2x gate) -----------
	scanSizes := []int{5000, 20000, 80000}
	if o.Quick {
		scanSizes = []int{5000, 20000}
	}
	var scanSpeedups []float64
	for _, n := range scanSizes {
		rows := ann.NewRows(dim)
		seedIx := &seedFlat{dim: dim}
		v := make(mat.Vec, dim)
		for i := 0; i < n; i++ {
			for d := range v {
				v[d] = float32(rng.NormFloat64())
			}
			mat.Normalize(v)
			rows.Append(int64(i), v)
			seedIx.add(int64(i), v)
		}
		q := mat.Normalize(randVec(dim))
		const k = 100
		baseNs, _ := bestOf(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seedIx.search(q, k)
			}
		})
		tierNs := make(map[string]float64, len(tiers))
		for _, tier := range tiers {
			prev, err := mat.SetKernelTier(tier)
			if err != nil {
				return nil, err
			}
			optNs, optAllocs := bestOf(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows.TopK(q, k)
				}
			})
			if _, err := mat.SetKernelTier(prev); err != nil {
				return nil, err
			}
			tierNs[tier] = optNs
			t.Add(fmt.Sprintf("flat scan n=%d k=%d [%s]", n, k, tier),
				fmt.Sprintf("%.0fns", baseNs),
				fmt.Sprintf("%.0fns", optNs),
				fmt.Sprintf("%.2fx", baseNs/optNs),
				fmt.Sprintf("%d", optAllocs))
		}
		scanSpeedups = append(scanSpeedups, baseNs/tierNs[widest])
	}

	// --- Cross-query batched scan ---------------------------------------
	// One ann.Rows.TopKBatch sweep vs Q lone TopK scans over the same rows:
	// same scores and heaps, 1/Q the memory traffic per query. The rows are
	// sized past the last-level cache, where the shared sweep pays.
	batchRows := 131072
	if o.Quick {
		batchRows = 16384
	}
	scanRows := ann.NewRows(dim)
	for i := 0; i < batchRows; i++ {
		scanRows.Append(int64(i), mat.Normalize(randVec(dim)))
	}
	const maxQ = 8
	batchQs := make([]mat.Vec, maxQ)
	for i := range batchQs {
		batchQs[i] = mat.Normalize(randVec(dim))
	}
	var batch8Speedup float64
	for _, qn := range []int{2, 4, 8} {
		baseNs, optNs, _ := micro(fmt.Sprintf("topk batch Q=%d rows=%d k=100 [%s]", qn, batchRows, widest),
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range batchQs[:qn] {
						scanRows.TopK(q, 100)
					}
				}
			},
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scanRows.TopKBatch(batchQs[:qn], 100)
				}
			})
		if qn == maxQ {
			batch8Speedup = baseNs / optNs
		}
	}

	// --- End-to-end query latency ---------------------------------------
	scales := []float64{0.5, 1.0}
	kinds := []vectordb.IndexKind{vectordb.IndexFlat, vectordb.IndexIMI}
	if o.Quick {
		scales = []float64{0.5}
	}
	for _, kind := range kinds {
		for _, rel := range scales {
			ds := datasets.Bellevue(datasets.Config{Seed: o.Seed, Scale: o.Scale * rel})
			sys, err := core.New(core.Config{Seed: o.Seed, Index: kind})
			if err != nil {
				return nil, err
			}
			for i := range ds.Videos {
				if err := sys.Ingest(&ds.Videos[i]); err != nil {
					return nil, err
				}
			}
			if err := sys.BuildIndex(); err != nil {
				return nil, err
			}
			queries := 48
			if o.Quick {
				queries = 12
			}
			// Same binary, same systems: the portable tier stands in for
			// "before" and the widest tier for "after" (both are
			// bit-identical, so the answers must agree exactly). One warm
			// pass first so both measured runs see hot caches.
			runOnce := func(tier string) ([]time.Duration, []*core.Result, error) {
				prev, err := mat.SetKernelTier(tier)
				if err != nil {
					return nil, nil, err
				}
				defer mat.SetKernelTier(prev)
				lat := make([]time.Duration, 0, queries)
				answers := make([]*core.Result, 0, queries)
				for i := 0; i < queries; i++ {
					text := ds.Queries[i%len(ds.Queries)].Text
					start := time.Now()
					res, err := core.Query(rootCtx(), sys, text, core.QueryOptions{Workers: 1})
					if err != nil {
						return nil, nil, err
					}
					lat = append(lat, time.Since(start))
					answers = append(answers, res)
				}
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				return lat, answers, nil
			}
			if _, _, err := runOnce(widest); err != nil { // warm-up
				return nil, err
			}
			baseLat, baseAns, err := runOnce(mat.TierPurego)
			if err != nil {
				return nil, err
			}
			optLat, optAns, err := runOnce(widest)
			if err != nil {
				return nil, err
			}
			for i := range baseAns {
				if len(baseAns[i].Objects) != len(optAns[i].Objects) {
					return nil, fmt.Errorf("kernels: e2e answers diverge between portable and SIMD kernels (query %d)", i)
				}
				for j := range baseAns[i].Objects {
					if baseAns[i].Objects[j] != optAns[i].Objects[j] {
						return nil, fmt.Errorf("kernels: e2e answers diverge between portable and SIMD kernels (query %d, object %d)", i, j)
					}
				}
			}
			p50b, p50o := percentile(baseLat, 0.50), percentile(optLat, 0.50)
			t.Add(fmt.Sprintf("e2e %s n=%d", kind, sys.Entities()),
				fmt.Sprintf("p50=%s p99=%s", ms(p50b), ms(percentile(baseLat, 0.99))),
				fmt.Sprintf("p50=%s p99=%s", ms(p50o), ms(percentile(optLat, 0.99))),
				fmt.Sprintf("%.2fx", float64(p50b)/float64(p50o)),
				"-")
		}
	}

	worst := scanSpeedups[0]
	for _, s := range scanSpeedups[1:] {
		if s < worst {
			worst = s
		}
	}
	t.Note("flat-scan speedup vs seed implementation at the %s tier: min %.2fx across sizes (acceptance gate: >= 2x)", widest, worst)
	if len(sweepAVX2OverSSE2) > 0 {
		t.Note("avx2 over sse2, L1-resident scoring sweep: %.2fx at %dd, %.2fx at 128d (acceptance gate, compute-bound dim: >= 1.5x); the full flat scan converges toward the tiers' shared load-port, cache-bandwidth and selection costs",
			sweepAVX2OverSSE2[dim], dim, sweepAVX2OverSSE2[128])
	}
	t.Note("ann.Rows.TopKBatch at Q=8 over 8 lone TopK scans: %.2fx (CI gate: >= 1.15x)", batch8Speedup)
	t.Note("kernel reduction order is the canonical 4-lane order (see internal/mat/kernels.go); all query paths share it, so sharded/remote answers stay byte-identical")
	t.Note("allocs/op column is the kernel path; scan paths allocate only their result slice (pooled scratch + pooled top-k heaps)")
	return t, nil
}

// quickIters is the iteration count a Quick run times each row with.
const quickIters = 16

// timeQuick runs a benchmark body once at b.N = quickIters and reports its
// time and allocations per iteration, without testing.Benchmark's ramp to
// a second of work.
func timeQuick(fn func(b *testing.B)) (ns float64, allocs int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn(&testing.B{N: quickIters})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / quickIters, int64(after.Mallocs-before.Mallocs) / quickIters
}

// trainBenchPQ trains the quantizer the micro-section scans.
func trainBenchPQ(data []mat.Vec) (*quant.PQ, error) {
	return quant.TrainPQ(data, 4, 64, 0x6b)
}

// pqTableRef is the seed's DotTable: a [][]float32 with one allocation per
// subspace row and per-centroid scalar dots.
func pqTableRef(pq *quant.PQ, q mat.Vec) [][]float32 {
	table := make([][]float32, pq.P)
	for sp := 0; sp < pq.P; sp++ {
		part := q[sp*pq.SubDim : (sp+1)*pq.SubDim]
		row := make([]float32, len(pq.Codebooks[sp]))
		for m, c := range pq.Codebooks[sp] {
			row[m] = dotScalarRef(part, c)
		}
		table[sp] = row
	}
	return table
}

// dotScalarRef is the seed's mat.Dot: single accumulator, strict serial
// order, as shipped before the kernel layer.
func dotScalarRef(a, b []float32) float32 {
	var s float32
	for i, av := range a {
		//lovo:kernel-ok the bench baseline IS the seed's scalar kernel; replacing it with mat.Dot would benchmark mat against itself
		s += av * b[i]
	}
	return s
}

// matMulScalarRef is the seed's MatMul: naive i-k-j loop with zero skip,
// allocating its result.
func matMulScalarRef(a, b *mat.Matrix) *mat.Matrix {
	out := mat.NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				//lovo:kernel-ok the bench baseline IS the seed's scalar kernel; replacing it with mat.MatMul would benchmark mat against itself
				orow[j] += av * bv
			}
		}
	}
	return out
}

// seedFlat is the seed's flat index: per-row subslice, scalar dot, a fresh
// heap per query.
type seedFlat struct {
	dim  int
	ids  []int64
	data []float32
}

func (ix *seedFlat) add(id int64, v mat.Vec) {
	ix.ids = append(ix.ids, id)
	ix.data = append(ix.data, v...)
}

func (ix *seedFlat) search(q mat.Vec, k int) []mat.Scored {
	top := mat.NewTopK(k)
	for i, id := range ix.ids {
		row := ix.data[i*ix.dim : (i+1)*ix.dim]
		top.Push(id, dotScalarRef(q, row))
	}
	return top.Sorted()
}
