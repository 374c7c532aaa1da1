package benchmark

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// reply renders what the serving tier would answer for one text under the
// fixed default plan, computed on ref.
func reply(t *testing.T, ref replayer, cfg core.Config, text string, cached bool) []byte {
	t.Helper()
	plan := cfg.Resolved().FixedPlan(core.QueryOptions{})
	res, err := ref.QueryBatchPlanned(context.Background(), []string{text}, []core.Plan{plan}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var objs []server.ObjectJSON
	if err := json.Unmarshal(objectsJSON(res[0]), &objs); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.QueryResponse{
		Objects: objs, CandidateFrames: res[0].CandidateFrames, Cached: cached,
		Plan: server.PlanJSON{Kind: string(plan.Kind), FastK: plan.FastK, ShardK: plan.ShardK,
			NProbe: plan.NProbe, Ef: plan.Ef, RerankFrames: plan.RerankFrames, TopN: plan.TopN},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sampleOf is what closedLoop records for a reply body.
func sampleOf(t *testing.T, text int, body []byte, keep bool) sample {
	t.Helper()
	objects, cached, ok := splitReply(body)
	if !ok {
		t.Fatalf("reply does not split: %s", body)
	}
	s := sample{texts: []int{text}, ok: true, cached: cached, hash: hashBytes(objects), size: len(body)}
	if keep {
		s.body = body
	}
	return s
}

// The correctness half of the gate must not rot silently: a perturbed object
// and a stale cached body must both be caught, counted in fail_ratio, and
// fail the exit code.
func TestVerifierCatchesWrongAndStaleAnswers(t *testing.T) {
	w := Workloads[0]
	corpus := genCorpus(1, 0.04)
	corpus.Data.Videos = corpus.Data.Videos[:smokeSizing.videos]
	ref, err := buildReference(w, 1, corpus, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := systemConfig(w, 1)
	pool := []string{corpus.Table2[0].Text, corpus.Table2[1].Text, corpus.Table2[4].Text}
	good := reply(t, ref, cfg, pool[0], false)

	// One object perturbed, in a reply that is replayed on the reference.
	var wrong server.QueryResponse
	if err := json.Unmarshal(reply(t, ref, cfg, pool[1], false), &wrong); err != nil {
		t.Fatal(err)
	}
	if len(wrong.Objects) == 0 {
		t.Fatalf("%q retrieves nothing on the test corpus", pool[1])
	}
	wrong.Objects[0].Box.X += 0.125
	perturbed, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	// A cached reply carrying another query's objects: not replayed (its
	// body was not kept), caught against the bytes first served.
	stale := reply(t, ref, cfg, pool[2], true)

	samples := []sample{
		sampleOf(t, 0, good, true),
		sampleOf(t, 0, good, false), // an honest repeat
		sampleOf(t, 1, perturbed, true),
		sampleOf(t, 0, stale, false),
		{texts: []int{2}}, // a transport failure
	}
	bad, err := verifyReplies(context.Background(), ref, samples, pool, false, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, si := range []int{2, 3, 4} {
		if _, caught := bad[si]; !caught {
			t.Errorf("sample %d was not caught", si)
		}
	}
	for _, si := range []int{0, 1} {
		if why, caught := bad[si]; caught {
			t.Errorf("correct sample %d was failed: %s", si, why)
		}
	}

	// The failures reach the result line and the exit code.
	r := &runner{w: w, values: make(map[string]float64)}
	r.check.attempted = len(samples)
	for _, why := range bad {
		r.check.fail("%s", why)
	}
	for _, m := range EndToEnd {
		r.values[m.Name] = 1
	}
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 3 || res.Attempted != 5 || r.values["loadgen.fail_ratio"] != 0.6 {
		t.Errorf("result: correct=%t failed=%d attempted=%d fail_ratio=%g", res.Correct, res.Failed, res.Attempted, r.values["loadgen.fail_ratio"])
	}
	if exitCode([]*Result{res}) == 0 {
		t.Error("a run with failed operations exits 0")
	}
	r.check = checker{attempted: 5}
	if res, err = r.result(); err != nil || !res.Correct || exitCode([]*Result{res}) != 0 {
		t.Errorf("a clean run: correct=%t err=%v", res.Correct, err)
	}
}

func TestSplitReplyAgreesWithTheDecoder(t *testing.T) {
	body := []byte(`{"objects":[{"video_id":1,"frame_idx":2,"box":{"x":0.1,"y":0.2,"w":0.3,"h":0.4},"score":0.5,"patch_id":7}],"candidate_frames":3,"fast_search_ms":1,"rerank_ms":2,"cached":true,"plan":{"kind":"fixed","fast_k":100,"shard_k":100,"rerank_frames":16,"top_n":10}}` + "\n")
	objects, cached, ok := splitReply(body)
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !ok || !cached || string(objects) != string(r.Objects) {
		t.Errorf("fast path: ok=%t cached=%t objects=%s, decoder: %s", ok, cached, objects, r.Objects)
	}
	// Another field order takes the decoder path and gives the same answer.
	reordered := []byte(`{"cached":false,"objects":[],"candidate_frames":0}`)
	objects, cached, ok = splitReply(reordered)
	if !ok || cached || string(objects) != "[]" {
		t.Errorf("fallback: ok=%t cached=%t objects=%s", ok, cached, objects)
	}
	if _, _, ok := splitReply([]byte(`{"error":"index not built yet"}`)); ok {
		t.Error("an error body split as a reply")
	}
}
