package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/video"
)

// The correctness half of the gate. A reference system is built from the
// same corpus and seed as the system under test but on a simpler deployment
// shape, and sampled replies are replayed on it under the plan the reply
// echoes. The repo's bit-identity contract (remote == sharded == monolith
// under equal plans) makes the "objects" bytes comparable. A mismatch is a
// failed operation.

// replayer is the reference surface: *shard.Engine and *core.System both
// execute pinned plans in batches.
type replayer interface {
	QueryBatchPlanned(ctx context.Context, texts []string, plans []core.Plan, workers, clients int) ([]*core.Result, error)
	Entities() int
}

// checker counts operations and the ones that failed, keeping the first few
// reasons for the log.
type checker struct {
	attempted, failed int
	reasons           []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// buildReference constructs the workload's reference system.
func buildReference(w Workload, seed uint64, corpus *Corpus, clips []video.Video) (replayer, error) {
	cfg := systemConfig(w, seed)
	// The streaming store is checked against the batch store.
	cfg.Streaming, cfg.SegmentSize = false, 0
	if w.Traffic == trafficBatch {
		// Sharded == monolith under exhaustive plans.
		sys, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		for i := range corpus.Data.Videos {
			if err := sys.Ingest(&corpus.Data.Videos[i]); err != nil {
				return nil, fmt.Errorf("reference ingest: %w", err)
			}
		}
		return sys, sys.BuildIndex()
	}
	// Remote == in-process sharded; streaming == batch.
	eng, err := shard.NewReplicated(shards, 1, cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.IngestDataset(&corpus.Data); err != nil {
		return nil, fmt.Errorf("reference ingest: %w", err)
	}
	for i := range clips {
		if err := eng.Ingest(&clips[i]); err != nil {
			return nil, fmt.Errorf("reference ingest of clip %d: %w", clips[i].ID, err)
		}
	}
	return eng, eng.BuildIndex()
}

// planFromEcho turns the plan a reply echoes back into the pinned plan that
// reproduces it.
func planFromEcho(raw json.RawMessage) (core.Plan, error) {
	var p server.PlanJSON
	if err := json.Unmarshal(raw, &p); err != nil {
		return core.Plan{}, err
	}
	return core.Plan{
		Exact: p.Exact, FastK: p.FastK, ShardK: p.ShardK, NProbe: p.NProbe, Ef: p.Ef,
		RerankFrames: p.RerankFrames, TopN: p.TopN, SkipRerank: p.SkipRerank, Int8: p.Int8,
		Kind: core.PlanPinned,
	}, nil
}

// objectsJSON encodes a result's objects exactly as the serving tier does.
func objectsJSON(res *core.Result) []byte {
	objs := make([]server.ObjectJSON, len(res.Objects))
	for i, o := range res.Objects {
		objs[i] = server.ObjectJSON{
			VideoID: o.VideoID, FrameIdx: o.FrameIdx,
			Box:   server.BoxJSON{X: o.Box.X, Y: o.Box.Y, W: o.Box.W, H: o.Box.H},
			Score: o.Score, PatchID: o.PatchID,
		}
	}
	b, err := json.Marshal(objs)
	if err != nil {
		panic(fmt.Sprintf("encoding objects: %v", err)) // plain numbers cannot fail to encode
	}
	return b
}

// answer is one (text, reply) pair to check against the reference.
type answer struct {
	text  string
	reply queryReply
	// sample is the index of the operation the answer belongs to.
	sample int
}

// answersOf decodes the kept body of a sample into its answers.
func answersOf(s sample, si int, pool []string, batch bool) ([]answer, error) {
	if !batch {
		var r queryReply
		if err := json.Unmarshal(s.body, &r); err != nil {
			return nil, err
		}
		return []answer{{text: pool[s.texts[0]], reply: r, sample: si}}, nil
	}
	var br batchReply
	if err := json.Unmarshal(s.body, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(s.texts) {
		return nil, fmt.Errorf("batch of %d texts answered with %d results", len(s.texts), len(br.Results))
	}
	out := make([]answer, len(br.Results))
	for i, r := range br.Results {
		out[i] = answer{text: pool[s.texts[i]], reply: r, sample: si}
	}
	return out, nil
}

// replay runs the answers on the reference under their echoed plans, eight
// at a time, and returns the indices of the samples with a wrong answer.
// Identical (text, plan) pairs are replayed once.
func replay(ctx context.Context, ref replayer, answers []answer) (map[int]string, error) {
	type key struct{ text, plan string }
	want := make(map[key][]byte)
	var texts []string
	var plans []core.Plan
	var keys []key
	asked := make([]key, len(answers)) // each answer's (text, plan)
	bad := make(map[int]string)
	for i, a := range answers {
		plan, err := planFromEcho(a.reply.Plan)
		if err != nil {
			bad[a.sample] = fmt.Sprintf("%q: undecodable plan echo: %v", a.text, err)
			continue
		}
		k := key{a.text, plan.Key()}
		asked[i] = k
		if _, ok := want[k]; !ok {
			want[k] = nil
			texts, plans, keys = append(texts, a.text), append(plans, plan), append(keys, k)
		}
	}
	// Chunks replay side by side: a monolithic reference sweeps one batch
	// on one core.
	chunks := (len(texts) + batchSize - 1) / batchSize
	answered := make([][]*core.Result, chunks)
	errs := make([]error, chunks)
	core.ParallelFor(chunks, runtime.NumCPU(), func(c int) {
		lo, hi := c*batchSize, min((c+1)*batchSize, len(texts))
		answered[c], errs[c] = ref.QueryBatchPlanned(ctx, texts[lo:hi], plans[lo:hi], 0, 0)
	})
	for c, results := range answered {
		if errs[c] != nil {
			return nil, fmt.Errorf("reference replay: %w", errs[c])
		}
		for i, res := range results {
			want[keys[c*batchSize+i]] = objectsJSON(res)
		}
	}
	for i, a := range answers {
		if _, done := bad[a.sample]; done {
			continue
		}
		if w := want[asked[i]]; !bytes.Equal(w, a.reply.Objects) {
			bad[a.sample] = fmt.Sprintf("%q: %d bytes of objects differ from the reference's %d", a.text, len(a.reply.Objects), len(w))
		}
	}
	return bad, nil
}

// verifyReplies checks the replies of one run and returns the indices of the
// failed samples with the reason for each:
//   - every reply must be a 2xx that decodes;
//   - while the corpus stands still, every reply to a text must carry the
//     bytes first served for it, so a stale or corrupted cached body is caught
//     even when the sample is not replayed;
//   - every kept reply must equal the reference's answer under its echoed plan.
//
// ref may be nil (live_ingest: the corpus moved under the window's replies),
// which leaves only the first check.
func verifyReplies(ctx context.Context, ref replayer, samples []sample, pool []string, batch, static bool) (map[int]string, error) {
	bad := make(map[int]string)
	first := make(map[int]uint64)
	var answers []answer
	for si, s := range samples {
		if !s.ok {
			bad[si] = "request failed"
			continue
		}
		if static && !batch {
			if h, seen := first[s.texts[0]]; !seen {
				first[s.texts[0]] = s.hash
			} else if h != s.hash {
				bad[si] = fmt.Sprintf("%q: objects differ from the bytes first served (cached=%t)", pool[s.texts[0]], s.cached)
				continue
			}
		}
		if ref == nil || s.body == nil {
			continue
		}
		as, err := answersOf(s, si, pool, batch)
		if err != nil {
			bad[si] = fmt.Sprintf("undecodable reply: %v", err)
			continue
		}
		answers = append(answers, as...)
	}
	if ref != nil {
		wrong, err := replay(ctx, ref, answers)
		if err != nil {
			return nil, err
		}
		for si, why := range wrong {
			bad[si] = why
		}
	}
	return bad, nil
}

// ask sends one query (or one batch) through the workload's own HTTP path
// and returns the decoded replies.
func (r *runner) ask(ctx context.Context, texts []string, options string) ([]queryReply, error) {
	quoted := quoteAll(texts)
	if r.w.Traffic != trafficBatch {
		out := make([]queryReply, len(texts))
		for i := range texts {
			body, status, err := r.st.post(ctx, "/query", bytes.NewReader(queryBody(quoted[i], options)))
			if err != nil {
				return nil, err
			}
			if status != http.StatusOK {
				return nil, fmt.Errorf("POST /query %q: status %d: %s", texts[i], status, body)
			}
			if err := json.Unmarshal(body, &out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var out []queryReply
	idx := make([]int, 0, batchSize)
	for lo := 0; lo < len(texts); lo += batchSize {
		idx = idx[:0]
		for i := lo; i < min(lo+batchSize, len(texts)); i++ {
			idx = append(idx, i)
		}
		body, status, err := r.st.post(ctx, "/query/batch", bytes.NewReader(batchBody(quoted, idx, options)))
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("POST /query/batch: status %d: %s", status, body)
		}
		var br batchReply
		if err := json.Unmarshal(body, &br); err != nil {
			return nil, err
		}
		out = append(out, br.Results...)
	}
	return out, nil
}

// verifyLive is live_ingest's check once the writer has drained and
// maintenance is quiet: a seeded sample of texts is asked under a pinned
// exhaustive plan and compared with a batch engine fed the same clips in
// order, and /stats must count every acknowledged clip.
func (r *runner) verifyLive(ctx context.Context, ref replayer, acked int, c *checker) error {
	rng := rand.New(rand.NewPCG(mix(r.cfg.Seed, streamSample, 99), 7))
	texts := make([]string, 32)
	for i := range texts {
		texts[i] = r.pool[rng.IntN(len(r.pool))]
	}
	replies, err := r.ask(ctx, texts, `{"exhaustive":true,"disable_rerank":true}`)
	if err != nil {
		return err
	}
	answers := make([]answer, len(replies))
	for i, rep := range replies {
		answers[i] = answer{text: texts[i], reply: rep, sample: i}
	}
	wrong, err := replay(ctx, ref, answers)
	if err != nil {
		return err
	}
	c.attempted += len(texts)
	for _, why := range wrong {
		c.fail("streaming vs batch: %s", why)
	}

	body, status, err := r.st.get(ctx, "/stats")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /stats: status %d: %v", status, err)
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		return err
	}
	c.attempted++
	if want := len(r.corpus.Data.Videos) + acked; stats.Ingest.Videos != want || stats.Entities != ref.Entities() {
		c.fail("/stats counts %d videos, %d vectors; acknowledged ingest makes %d videos, %d vectors",
			stats.Ingest.Videos, stats.Entities, want, ref.Entities())
	}
	return nil
}

// measureAveP asks the corpus' Table II queries through the workload's own
// HTTP path and scores them against exact ground truth over everything the
// system has ingested. It is deterministic in the seed.
func (r *runner) measureAveP(ctx context.Context, ingested *datasets.Dataset, c *checker) (float64, error) {
	texts := make([]string, len(r.corpus.Table2))
	for i, q := range r.corpus.Table2 {
		texts[i] = q.Text
	}
	c.attempted += len(texts)
	replies, err := r.ask(ctx, texts, r.w.Options)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, rep := range replies {
		var objs []server.ObjectJSON
		if err := json.Unmarshal(rep.Objects, &objs); err != nil {
			return 0, err
		}
		results := make([]metrics.Retrieved, len(objs))
		for j, o := range objs {
			results[j] = metrics.Retrieved{VideoID: o.VideoID, FrameIdx: o.FrameIdx,
				Box: video.Box{X: o.Box.X, Y: o.Box.Y, W: o.Box.W, H: o.Box.H}, Score: o.Score}
		}
		gt := datasets.GroundTruth(ingested, queryTerms(texts[i]))
		sum += metrics.AveragePrecision(metrics.Truncate(results, metrics.Depth(gt)), gt, metrics.DefaultIoU)
	}
	return sum / float64(len(texts)), nil
}
