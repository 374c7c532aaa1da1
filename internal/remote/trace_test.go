package remote_test

// End-to-end tracing pins, over the same hermetic net.Pipe harness the
// conformance suite uses:
//
//  1. A traced distributed query yields a span tree with exactly one
//     worker-side stage-1 span per remote worker, each with a duration
//     measured on the worker and grafted under its RPC leg.
//  2. The conformance guarantee survives tracing: with tracing forced on,
//     answers stay byte-identical to the untraced run across index kinds —
//     tracing observes, it never steers.
//  3. Attribution under chaos: a worker with injected stage-1 latency is
//     identifiable from the coordinator trace alone (its leg span
//     dominates), while the answer stays byte-identical.

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/shard"
)

// tracedQuery runs one query with a fresh trace attached and returns the
// result plus the exported spans.
func tracedQuery(t *testing.T, eng *shard.Engine, text string, opts core.QueryOptions) (*core.Result, []obs.SpanData) {
	t.Helper()
	tr := obs.NewTrace(obs.NewID())
	root := tr.Root("query")
	res, err := core.Query(obs.With(context.Background(), root), eng, text, opts)
	root.End()
	if err != nil {
		t.Fatalf("traced query %q: %v", text, err)
	}
	return res, tr.Export()
}

// spansNamed collects the spans with the given name.
func spansNamed(spans []obs.SpanData, name string) []obs.SpanData {
	var out []obs.SpanData
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestTracedDistributedQuery is the tentpole acceptance pin: a traced query
// against a 3-worker remote engine produces a span tree whose stage-1
// fan-out carries one worker-measured span per remote worker.
func TestTracedDistributedQuery(t *testing.T) {
	const seed = 7
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	cfg := core.Config{Seed: seed}
	eng, _ := remoteEngine(t, 3, 1, cfg, remote.ClientOptions{})
	ingestAll(t, eng, ds)

	text := ds.Queries[0].Text
	res, spans := tracedQuery(t, eng, text, core.QueryOptions{})
	if len(res.Objects) == 0 {
		t.Fatal("query returned nothing; the trace assertions would be vacuous")
	}

	legs := spansNamed(spans, "stage1.shard")
	if len(legs) != 3 {
		t.Fatalf("stage1.shard legs = %d, want one per worker (3)\nspans: %+v", len(legs), spans)
	}
	workers := spansNamed(spans, "worker.stage1")
	if len(workers) != 3 {
		t.Fatalf("worker.stage1 spans = %d, want one per worker (3)\nspans: %+v", len(workers), spans)
	}
	for _, w := range workers {
		// The duration was measured on the worker: it shipped over the wire
		// already fixed, and a zero duration would mean the worker never
		// timed its half.
		if w.Dur <= 0 {
			t.Fatalf("worker.stage1 span has no worker-measured duration: %+v", w)
		}
		// Grafted under an RPC leg, not floating at the root.
		if w.Parent < 0 || int(w.Parent) >= len(spans) || spans[w.Parent].Name != "stage1.shard" {
			t.Fatalf("worker.stage1 span not grafted under its leg: %+v", w)
		}
	}
	// The coordinator-side skeleton is present too.
	for _, name := range []string{"stage1", "merge", "rerank"} {
		if len(spansNamed(spans, name)) == 0 {
			t.Fatalf("trace lacks a %q span\nspans: %+v", name, spans)
		}
	}
	// Worker sub-spans crossed the wire: the core layers on the worker
	// record encode/ann/join under worker.stage1.
	if len(spansNamed(spans, "ann")) == 0 {
		t.Fatalf("trace lacks worker-side ann spans\nspans: %+v", spans)
	}
}

// TestConformanceWithTracingForcedOn re-runs the conformance comparison
// with tracing on: the bit-identity pin (remote engine vs monolithic system
// under exact search, and vs its own untraced run under the default plan)
// must hold span-for-span unchanged — tracing must never change an answer.
func TestConformanceWithTracingForcedOn(t *testing.T) {
	const seed = 7
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	for _, kind := range conformanceKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.Config{Seed: seed, Index: kind}
			single := singleSystem(t, cfg, ds)
			eng, _ := remoteEngine(t, 4, 1, cfg, remote.ClientOptions{})
			ingestAll(t, eng, ds)

			queries := ds.Queries
			if testing.Short() {
				queries = queries[:2]
			}
			for _, q := range queries {
				// Exact search: the monolithic system is the reference.
				want, err := core.Query(context.Background(), single, q.Text, core.QueryOptions{Exhaustive: true})
				if err != nil {
					t.Fatalf("%s single: %v", q.ID, err)
				}
				got, spans := tracedQuery(t, eng, q.Text, core.QueryOptions{Exhaustive: true})
				if !reflect.DeepEqual(got.Objects, want.Objects) {
					t.Errorf("%s: tracing changed the exact answer", q.ID)
				}
				if got.CandidateFrames != want.CandidateFrames {
					t.Errorf("%s: candidate frames %d != %d", q.ID, got.CandidateFrames, want.CandidateFrames)
				}
				if len(spansNamed(spans, "worker.stage1")) != 4 {
					t.Errorf("%s: traced exact query lacks its 4 worker spans", q.ID)
				}

				// Default (approximate) plan: the same engine untraced is
				// the reference.
				uw, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
				if err != nil {
					t.Fatalf("%s untraced: %v", q.ID, err)
				}
				tg, _ := tracedQuery(t, eng, q.Text, core.QueryOptions{})
				if !reflect.DeepEqual(tg.Objects, uw.Objects) || tg.CandidateFrames != uw.CandidateFrames {
					t.Errorf("%s: tracing changed the approximate answer", q.ID)
				}
			}
		})
	}
}

// slowBackend delays every stage-1 call by a fixed amount — the injected
// latency the coordinator trace must attribute to the right worker.
type slowBackend struct {
	remote.ShardBackend
	delay time.Duration
}

func (s *slowBackend) FastSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][]core.ResultObject, error) {
	time.Sleep(s.delay)
	return s.ShardBackend.FastSearchBatch(ctx, texts, plans)
}

// TestTraceAttributesInjectedLatency is the chaos pin: with one worker's
// stage-1 slowed by an injected delay, the coordinator trace alone must
// identify it — that worker's RPC leg span dominates every other leg —
// while the answer stays byte-identical to the healthy run.
func TestTraceAttributesInjectedLatency(t *testing.T) {
	const seed = 9
	const slowShard = 1
	const delay = 60 * time.Millisecond
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	cfg := core.Config{Seed: seed}

	hosts := make([]*pipeHost, 2)
	backends := make([]remote.ShardBackend, 2)
	var slow *slowBackend
	for i := range hosts {
		l, err := shard.NewLocal(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var backend remote.ShardBackend = l
		if i == slowShard {
			slow = &slowBackend{ShardBackend: l, delay: 0} // healthy until armed
			backend = slow
		}
		hosts[i] = newPipeHost(backend)
		backends[i] = remote.NewClient("pipe://"+string(rune('a'+i)), remote.ClientOptions{
			Dial: hosts[i].dial, Timeout: 30 * time.Second,
		})
	}
	eng, err := shard.NewWithBackends(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ingestAll(t, eng, ds)

	text := ds.Queries[0].Text
	want, err := core.Query(context.Background(), eng, text, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	slow.delay = delay
	got, spans := tracedQuery(t, eng, text, core.QueryOptions{})
	if !reflect.DeepEqual(got.Objects, want.Objects) || got.CandidateFrames != want.CandidateFrames {
		t.Fatal("injected latency changed the answer")
	}

	legs := spansNamed(spans, "stage1.shard")
	if len(legs) != 2 {
		t.Fatalf("stage1.shard legs = %d, want 2", len(legs))
	}
	var slowDur, fastDur time.Duration
	for _, leg := range legs {
		if strings.HasPrefix(leg.Detail, "shard=1 ") {
			slowDur = leg.Dur
		} else {
			fastDur = leg.Dur
		}
	}
	if slowDur < delay {
		t.Fatalf("slow worker's leg span (%v) does not cover the injected %v delay", slowDur, delay)
	}
	if slowDur < 2*fastDur {
		t.Fatalf("slow leg (%v) does not dominate the healthy leg (%v) — the trace fails to attribute the latency", slowDur, fastDur)
	}
}
