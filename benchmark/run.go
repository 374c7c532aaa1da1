package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/server"
	"repro/internal/video"
)

// RunConfig selects one run of one workload.
type RunConfig struct {
	Workload string
	// Seed drives the corpus, the query pool and every schedule.
	Seed uint64
	// Window is the timed window's length.
	Window time.Duration
	// Trace adds the traced pass, which yields the per-layer metrics.
	Trace bool
	// Smoke shrinks the corpus, the warm-up and the traced pass (see
	// smokeSizing); only smoke_test.go sets it.
	Smoke bool
	// TraceDir receives trace-<workload>.json after a traced run.
	TraceDir string
	// Log receives progress lines (never the result).
	Log io.Writer
}

// Result is the outcome of one run.
type Result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Correct is false when any operation failed or any answer was wrong.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// EndToEnd and PerLayer hold every metric of the respective table that
	// the run measured (PerLayer only after a traced run).
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Reasons lists the first few failures.
	Reasons []string `json:"reasons,omitempty"`
}

// runner carries one run's state.
type runner struct {
	cfg    RunConfig
	w      Workload
	size   sizing
	corpus *Corpus
	pool   []string
	quoted [][]byte
	clips  []video.Video
	st     *stack
	// heapBase is the heap in use before any system was set up.
	heapBase float64
	values   map[string]float64
	check    checker
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		fmt.Fprintf(r.cfg.Log, "[%s seed %d] "+format+"\n", append([]any{r.w.Name, r.cfg.Seed}, args...)...)
	}
}

// poolSize is the query pool per 13 s of traffic (warm-up plus the default
// window): enough that no closed-loop client on the reference box wraps
// around and starts repeating texts into the result cache.
const poolSize = 8192

// Run executes one workload once: generate, set up, warm up, measure, verify,
// and (when asked) trace.
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	w, err := workloadByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("window must be positive, got %v", cfg.Window)
	}
	r := &runner{cfg: cfg, w: w, size: gateSizing, values: make(map[string]float64)}
	if cfg.Smoke {
		r.size = smokeSizing
		r.w.Scale = r.size.scale
	}

	if err := r.generate(); err != nil {
		return nil, err
	}
	if err := r.setUp(ctx); err != nil {
		return nil, err
	}
	defer func() { r.st.close(ctx) }()

	win, err := r.drive(ctx)
	if err != nil {
		return nil, err
	}
	if err := r.verify(ctx, win); err != nil {
		return nil, err
	}
	r.summarise(win)
	if cfg.Trace {
		if err := r.tracedPass(ctx); err != nil {
			return nil, err
		}
	}
	// Last, because it grows the corpus under everything above.
	if err := r.ingestProbe(ctx); err != nil {
		return nil, err
	}
	return r.result()
}

// generate makes every input from the seed, before any clock that counts.
func (r *runner) generate() error {
	start := time.Now()
	r.corpus = genCorpus(r.cfg.Seed, r.w.Scale)
	if n := r.size.videos; n > 0 && n < len(r.corpus.Data.Videos) {
		r.corpus.Data.Videos = r.corpus.Data.Videos[:n]
	}
	n := poolSize * int(math.Ceil(float64(r.size.warmup+r.cfg.Window)/float64(13*time.Second)))
	var err error
	if r.pool, err = genPool(r.cfg.Seed, streamPool, n, r.corpus.Table2); err != nil {
		return err
	}
	r.quoted = quoteAll(r.pool)
	if r.w.Traffic == trafficLive {
		if r.clips, err = genClips(r.cfg.Seed, liveClipBase, int(r.cfg.Window/clipInterval)); err != nil {
			return err
		}
	}
	r.values["datasets.gen_s"] = time.Since(start).Seconds()
	return nil
}

// setUp sets the system up from scratch, several times, and keeps the last.
func (r *runner) setUp(ctx context.Context) error {
	// The heap is compared with what was in use before the first round: by
	// the time the last round is up, the earlier rounds' systems are
	// garbage (their connection goroutines have long exited), so the
	// growth is one system's footprint.
	r.heapBase = heapInuse()
	var setup, fps, build []float64
	for round := 0; round < r.size.setupRounds; round++ {
		if r.st != nil {
			r.st.close(ctx)
			r.st = nil
		}
		st, t, err := bootStack(ctx, r.w, r.cfg.Seed, r.corpus)
		if err != nil {
			return fmt.Errorf("set-up round %d: %w", round, err)
		}
		r.st = st
		setup = append(setup, t.setup.Seconds())
		fps = append(fps, float64(r.corpus.Data.Frames())/t.ingest.Seconds())
		build = append(build, t.build.Seconds())
		r.logf("set-up %d: %.2fs (ingest %.2fs, build %.2fs)", round, t.setup.Seconds(), t.ingest.Seconds(), t.build.Seconds())
	}
	r.values["setup_s"] = median(setup)
	r.values["ingested_frames_per_s"] = median(fps)
	r.values["corpus_heap_mb"] = heapInuse() - r.heapBase
	r.values["vectordb.build_index_s"] = median(build)

	var entities int
	var raw, index int64
	for i := range r.st.locals {
		sys := r.st.system(i)
		entities += sys.Entities()
		if seg := sys.Segmented(); seg != nil {
			s := seg.Stats()
			raw, index = raw+s.RawBytes, index+s.IndexBytes
		} else {
			s := sys.Collection().Stats()
			raw, index = raw+s.RawBytes, index+s.IndexBytes
		}
	}
	r.values["vectordb.entities"] = float64(entities)
	r.values["vectordb.raw_bytes"] = float64(raw)
	r.values["vectordb.index_bytes"] = float64(index)
	return nil
}

// snapshot is the process and server state at one edge of the window.
type snapshot struct {
	at    time.Time
	mem   runtime.MemStats
	cpu   time.Duration
	stats server.StatsResponse
	// wireBytes and wireRPCs count the worker sockets' traffic so far.
	wireBytes, wireRPCs int64
	maint               []maintState
}

// maintState is one streaming shard's maintenance progress.
type maintState struct {
	ops  uint64 // seals + compactions since creation
	busy []time.Duration
}

func (r *runner) snapshot(ctx context.Context) (snapshot, error) {
	var s snapshot
	body, status, err := r.st.get(ctx, "/stats")
	if err != nil || status != http.StatusOK {
		return s, fmt.Errorf("GET /stats: status %d: %v", status, err)
	}
	if err := json.Unmarshal(body, &s.stats); err != nil {
		return s, err
	}
	for i := range r.st.locals {
		sys := r.st.system(i)
		seg, ok := sys.SegmentStats()
		if !ok {
			continue
		}
		m := maintState{ops: seg.Seals + seg.Compactions}
		for _, ev := range sys.MaintLog() {
			if len(ev.Spans) > 0 {
				m.busy = append(m.busy, ev.Spans[0].Dur)
			}
		}
		s.maint = append(s.maint, m)
	}
	s.wireBytes, s.wireRPCs = r.st.wire.bytes.Load(), r.st.wire.rpcs.Load()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, err
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	runtime.ReadMemStats(&s.mem)
	s.at = time.Now()
	return s, nil
}

// window is everything one warm-up plus timed window produced.
type window struct {
	queries, ingests []sample
	before, after    snapshot
}

// drive runs the workload's traffic: warm-up, then the timed window. The
// generator is never more than maxClients goroutines: two closed-loop
// clients, or one reader beside the open-loop writer.
func (r *runner) drive(ctx context.Context) (*window, error) {
	var scheds []schedule
	switch r.w.Traffic {
	case trafficHot:
		for c := 0; c < maxClients; c++ {
			scheds = append(scheds, zipfSchedule(r.cfg.Seed, hotTexts, c, 1.1))
		}
	case trafficLive:
		scheds = append(scheds, permSchedule(r.cfg.Seed, len(r.pool), 0, 1))
	default:
		for c := 0; c < maxClients; c++ {
			scheds = append(scheds, permSchedule(r.cfg.Seed, len(r.pool), c, maxClients))
		}
	}
	// Clip bodies are encoded before any clock starts.
	bodies := make([][]byte, len(r.clips))
	for i := range r.clips {
		b, err := json.Marshal(&r.clips[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	start := time.Now().Add(r.size.warmup)
	end := start.Add(r.cfg.Window)
	perClient := make([][]sample, len(scheds))
	win := &window{}
	var wg sync.WaitGroup
	for c, sched := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perClient[c] = r.closedLoop(ctx, c, sched, start, end)
		}()
	}
	if r.w.Traffic == trafficLive {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.ingests = r.openLoopWriter(ctx, bodies, start, clipInterval)
		}()
	}
	var err error
	sleepUntil(ctx, start)
	if win.before, err = r.snapshot(ctx); err == nil {
		sleepUntil(ctx, end)
		win.after, err = r.snapshot(ctx)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, s := range perClient {
		win.queries = append(win.queries, s...)
	}
	if r.w.Traffic == trafficLive {
		if err := r.st.waitMaintenance(); err != nil {
			return nil, err
		}
		// The corpus grew during the window: report the larger footprint.
		r.values["corpus_heap_mb"] = max(r.values["corpus_heap_mb"], heapInuse()-r.heapBase)
	}
	return win, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	select {
	case <-time.After(time.Until(t)):
	case <-ctx.Done():
	}
}

// verify builds the reference and checks the window's replies, then asks the
// Table II queries for avep.
func (r *runner) verify(ctx context.Context, win *window) error {
	var acked []video.Video
	for i, s := range win.ingests {
		r.check.attempted++
		if s.ok {
			acked = append(acked, r.clips[i])
		} else {
			r.check.fail("POST /ingest of clip %d failed", r.clips[i].ID)
		}
	}
	start := time.Now()
	ref, err := buildReference(r.w, r.cfg.Seed, r.corpus, acked)
	if err != nil {
		return err
	}
	r.logf("reference built in %.2fs", time.Since(start).Seconds())

	static := r.w.Traffic != trafficLive
	windowRef := ref
	if !static {
		windowRef = nil // the corpus moved under the window's replies
	}
	bad, err := verifyReplies(ctx, windowRef, win.queries, r.pool, r.w.Traffic == trafficBatch, static)
	if err != nil {
		return err
	}
	r.check.attempted += len(win.queries)
	for si, why := range bad {
		win.queries[si].ok = false
		r.check.fail("%s", why)
	}
	ingested := &r.corpus.Data
	if !static {
		if err := r.verifyLive(ctx, ref, len(acked), &r.check); err != nil {
			return err
		}
		ingested = &datasets.Dataset{Videos: append(append([]video.Video(nil), r.corpus.Data.Videos...), acked...)}
	}
	r.values["core.avep"], err = r.measureAveP(ctx, ingested, &r.check)
	r.logf("verified in %.2fs: %d attempted, %d failed", time.Since(start).Seconds(), r.check.attempted, r.check.failed)
	return err
}

// summarise turns the window's samples and snapshots into metrics. It runs
// after verify, so a wrong answer already counts as a failed operation.
func (r *runner) summarise(win *window) {
	secs := r.cfg.Window.Seconds()
	var okMs, sizes, late []float64
	var failed, answered, cached, ops int
	for _, s := range win.queries {
		if s.warm {
			continue
		}
		ops++
		late = append(late, ms(s.late()))
		if !s.ok {
			failed++
			continue
		}
		okMs = append(okMs, ms(s.rtt()))
		sizes = append(sizes, float64(s.size))
		answered += len(s.texts)
		if s.cached {
			cached++
		}
	}
	q := newLatencies(okMs, failed)
	r.values["qps"] = float64(answered) / secs
	r.values["query_p50_ms"] = q.percentile(0.50)
	r.values["server.p95_ms"] = q.percentile(0.95)
	r.values["server.p99_ms"] = q.percentile(0.99)
	r.values["server.response_bytes"] = mean(sizes)
	r.values["server.cache_hit_ratio"] = float64(cached) / float64(max(len(okMs), 1))
	t := tail(q.n())
	r.logf("queries: n=%d p50=%.3fms p%g=%.3fms (highest percentile with >=10 samples beyond it), %d failed",
		q.n(), q.percentile(0.5), t*100, q.percentile(t), failed)

	if r.w.Traffic == trafficLive {
		var ingMs []float64
		ingFailed := 0
		late = late[:0] // the schedule that can run late is the writer's
		for _, s := range win.ingests {
			ops++
			late = append(late, ms(s.late()))
			if s.ok {
				ingMs = append(ingMs, ms(s.sojourn()))
			} else {
				ingFailed++
			}
		}
		ing := newLatencies(ingMs, ingFailed)
		r.values["ingest_p50_ms"] = ing.percentile(0.50)
		r.values["server.ingest_p95_ms"] = ing.percentile(0.95)
		r.logf("ingests: n=%d p50=%.3fms p95=%.3fms, %d failed", ing.n(), ing.percentile(0.5), ing.percentile(0.95), ingFailed)
	}
	r.values["loadgen.late_p95_ms"] = newLatencies(late, 0).percentile(0.95)

	b, a := &win.before, &win.after
	wall := a.at.Sub(b.at)
	nops := float64(max(ops, 1))
	r.values["go.alloc_kb_per_op"] = float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / 1024 / nops
	r.values["go.allocs_per_op"] = float64(a.mem.Mallocs-b.mem.Mallocs) / nops
	r.values["go.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	r.values["go.gc_pause_ms_total"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	r.values["go.cpu_util"] = float64(a.cpu-b.cpu) / (float64(wall) * float64(runtime.NumCPU()))
	nq := float64(max(answered, 1))
	r.values["remote.wire_bytes_per_query"] = float64(a.wireBytes-b.wireBytes) / nq
	r.values["remote.rpcs_per_query"] = float64(a.wireRPCs-b.wireRPCs) / nq

	// The serving tier's own counters must tell the same cache story as the
	// cached flags the clients saw.
	hits := float64(a.stats.Cache.Hits - b.stats.Cache.Hits)
	lookups := hits + float64(a.stats.Cache.Misses-b.stats.Cache.Misses)
	if lookups > 0 && math.Abs(hits/lookups-r.values["server.cache_hit_ratio"]) > 0.05 {
		r.check.attempted++
		r.check.fail("cache hit ratio: clients saw %.3f, /stats says %.3f", r.values["server.cache_hit_ratio"], hits/lookups)
	}

	var seals, compactions, sealedEnd float64
	if a.stats.Segments != nil && b.stats.Segments != nil {
		seals = float64(a.stats.Segments.Seals - b.stats.Segments.Seals)
		compactions = float64(a.stats.Segments.Compactions - b.stats.Segments.Compactions)
		sealedEnd = float64(a.stats.Segments.Sealed)
	}
	r.values["vectordb.seals"] = seals
	r.values["vectordb.compactions"] = compactions
	r.values["vectordb.sealed_segments_end"] = sealedEnd
	// The maintenance log is a bounded ring without timestamps: the
	// operations of the window are its newest entries, as many as the
	// seal and compaction counters advanced. Past the ring's capacity the
	// entries it still holds stand for the ones it dropped.
	var busy time.Duration
	for i := range a.maint {
		n := int(a.maint[i].ops - b.maint[i].ops)
		log := a.maint[i].busy
		held := min(n, len(log))
		var sum time.Duration
		for _, d := range log[len(log)-held:] {
			sum += d
		}
		if held > 0 {
			busy += sum * time.Duration(n) / time.Duration(held)
		}
	}
	r.values["vectordb.maint_busy_ratio"] = busy.Seconds() / wall.Seconds()
}

// result assembles the reported metrics.
func (r *runner) result() (*Result, error) {
	r.values["loadgen.fail_ratio"] = float64(r.check.failed) / float64(max(r.check.attempted, 1))
	res := &Result{
		Workload: r.w.Name, Seed: r.cfg.Seed, Trace: r.cfg.Trace,
		Correct: r.check.failed == 0, Attempted: r.check.attempted, Failed: r.check.failed,
		Reasons: r.check.reasons,
	}
	var err error
	if res.EndToEnd, err = collect(EndToEnd, r.values); err != nil {
		return nil, err
	}
	if r.cfg.Trace {
		if res.PerLayer, err = collect(PerLayer, r.values); err != nil {
			return nil, err
		}
	}
	return res, nil
}
