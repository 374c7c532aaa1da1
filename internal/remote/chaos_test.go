package remote_test

// Chaos suite: a seeded-RNG backend wrapper randomly delays, errors, or
// hangs each query-stage call of each worker. The invariant under test is
// all-or-nothing answering: a coordinator query under chaos either fails
// cleanly or returns the exact healthy-engine answer — never a partial
// merge (a hit list missing a shard, a grounding list missing candidates).
// Run with -race: the second test layers concurrent ingest on top.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/shard"
)

// chaosBackend wraps a ShardBackend, perturbing the two query stages with
// seeded randomness. Ingest/build/snapshot pass through untouched so the
// corpus itself stays deterministic — chaos tests the read path's
// all-or-nothing merge, not corpus divergence.
type chaosBackend struct {
	remote.ShardBackend
	mu  sync.Mutex
	rng *rand.Rand
	// pErr, pHang, pDelay are cumulative probabilities per stage call.
	pErr, pHang, pDelay float64
	hang, delay         time.Duration
	calls, errs, hangs  int
}

// The chaos mix: per stage call, 10% injected error, 6% hang past the
// client deadline, 30% small delay. Roughly half of all queries survive
// untouched or via retries — enough successes to prove answers stay exact,
// enough failures to prove they stay clean.
const (
	chaosPErr   = 0.10
	chaosPHang  = 0.06
	chaosPDelay = 0.30
)

func newChaosBackend(b remote.ShardBackend, seed int64) *chaosBackend {
	return &chaosBackend{
		ShardBackend: b,
		rng:          rand.New(rand.NewSource(seed)),
		pErr:         chaosPErr,
		pHang:        chaosPHang,
		pDelay:       chaosPDelay,
		hang:         4 * time.Second, // well past the client deadline
		delay:        2 * time.Millisecond,
	}
}

// perturb rolls the dice for one call: error, hang past the client
// deadline, small delay, or nothing.
func (c *chaosBackend) perturb() error {
	c.mu.Lock()
	r := c.rng.Float64()
	c.calls++
	var mode int
	switch {
	case r < c.pErr:
		mode = 1
		c.errs++
	case r < c.pErr+c.pHang:
		mode = 2
		c.hangs++
	case r < c.pErr+c.pHang+c.pDelay:
		mode = 3
	}
	c.mu.Unlock()
	switch mode {
	case 1:
		return fmt.Errorf("chaos: injected backend error")
	case 2:
		time.Sleep(c.hang)
	case 3:
		time.Sleep(c.delay)
	}
	return nil
}

func (c *chaosBackend) FastSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][]core.ResultObject, error) {
	if err := c.perturb(); err != nil {
		return nil, err
	}
	return c.ShardBackend.FastSearchBatch(ctx, texts, plans)
}

func (c *chaosBackend) GroundCandidates(ctx context.Context, text string, refs []core.FrameRef, workers int) ([]core.Grounding, error) {
	if err := c.perturb(); err != nil {
		return nil, err
	}
	return c.ShardBackend.GroundCandidates(ctx, text, refs, workers)
}

// chaosEngine builds an n-shard remote engine whose workers sit behind
// chaosBackends, over real pipes with a short client deadline so hangs
// convert into transport timeouts and retries.
func chaosEngine(t *testing.T, n int, cfg core.Config, seed int64) (*shard.Engine, []*chaosBackend) {
	t.Helper()
	hosts := make([]*pipeHost, n)
	chaos := make([]*chaosBackend, n)
	backends := make([]remote.ShardBackend, n)
	for i := range hosts {
		l, err := shard.NewLocal(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		chaos[i] = newChaosBackend(l, seed+int64(i))
		hosts[i] = newPipeHost(chaos[i])
		backends[i] = remote.NewClient(fmt.Sprintf("pipe://chaos-%d", i), remote.ClientOptions{
			Dial:    hosts[i].dial,
			Timeout: time.Second,
			Retries: 2,
		})
	}
	eng, err := shard.NewWithBackends(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, chaos
}

// calm switches chaos off (for setup/teardown phases).
func calm(chaos []*chaosBackend, on bool) {
	for _, c := range chaos {
		c.mu.Lock()
		if on {
			c.pErr, c.pHang, c.pDelay = chaosPErr, chaosPHang, chaosPDelay
		} else {
			c.pErr, c.pHang, c.pDelay = 0, 0, 0
		}
		c.mu.Unlock()
	}
}

// TestChaosQueriesMatchOrFailCleanly: against a fixed corpus, every query
// that succeeds under chaos must be byte-identical to the healthy answer;
// failures must be clean errors. The seeded RNG makes the injected fault
// schedule reproducible.
func TestChaosQueriesMatchOrFailCleanly(t *testing.T) {
	const seed = 17
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, chaos := chaosEngine(t, 3, cfg, 1000)

	calm(chaos, false)
	ingestAll(t, eng, ds)
	texts := make([]string, len(ds.Queries))
	want := make(map[string][]core.ResultObject, len(texts))
	for i, q := range ds.Queries {
		texts[i] = q.Text
		res, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[q.Text] = res.Objects
	}

	calm(chaos, true)
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	succeeded, failed := 0, 0
	for round := 0; round < rounds; round++ {
		for _, text := range texts {
			res, err := core.Query(context.Background(), eng, text, core.QueryOptions{Workers: 1})
			if err != nil {
				failed++
				continue
			}
			succeeded++
			if !reflect.DeepEqual(res.Objects, want[text]) {
				t.Fatalf("chaos produced a divergent (partial?) answer for %q\n got: %+v\nwant: %+v",
					text, res.Objects, want[text])
			}
		}
	}
	if succeeded == 0 {
		t.Fatal("no query survived chaos — retries are not doing their job")
	}
	t.Logf("chaos: %d succeeded, %d failed cleanly", succeeded, failed)
}

// TestChaosAlwaysErroringShardFailsWholeQuery pins the all-or-nothing
// contract deterministically: one shard that always errors must fail every
// query outright (the other shards' partial results are discarded, never
// merged and returned).
func TestChaosAlwaysErroringShardFailsWholeQuery(t *testing.T) {
	const seed = 19
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, chaos := chaosEngine(t, 3, cfg, 2000)
	calm(chaos, false)
	ingestAll(t, eng, ds)

	chaos[1].mu.Lock()
	chaos[1].pErr = 1.0
	chaos[1].mu.Unlock()
	for _, q := range ds.Queries[:3] {
		if _, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{}); err == nil {
			t.Fatalf("%s: query must fail when a shard always errors", q.ID)
		}
	}
}

// TestChaosUnderConcurrentIngest races chaotic queries against ongoing
// ingest across the RPC boundary (run with -race). During the race, queries
// must fail cleanly or answer consistently; once ingest quiesces and chaos
// stops, the engine must answer byte-identically to an in-process engine
// that ingested the same corpus — the chaos changed nothing durable.
func TestChaosUnderConcurrentIngest(t *testing.T) {
	const seed = 23
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, chaos := chaosEngine(t, 3, cfg, 3000)

	calm(chaos, false)
	half := (len(ds.Videos) + 1) / 2
	for i := 0; i < half; i++ {
		if err := eng.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	calm(chaos, true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := half; i < len(ds.Videos); i++ {
			if err := eng.Ingest(&ds.Videos[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	texts := queryTexts(ds)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Chaotic failures are fine; crashes, races and partial
				// merges are what -race and the post-quiesce check catch.
				core.Query(context.Background(), eng, texts[(c+i)%len(texts)], core.QueryOptions{Workers: 1})
			}
		}(c)
	}
	wg.Wait()
	calm(chaos, false)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	// Reference: an in-process engine over the same corpus.
	ref, err := shard.New(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ref, ds)
	for _, q := range ds.Queries[:4] {
		want, err := core.Query(context.Background(), ref, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want.Objects) {
			t.Fatalf("%s: post-chaos engine diverges from reference", q.ID)
		}
	}
}

func queryTexts(ds *datasets.Dataset) []string {
	texts := make([]string, len(ds.Queries))
	for i, q := range ds.Queries {
		texts[i] = q.Text
	}
	return texts
}
