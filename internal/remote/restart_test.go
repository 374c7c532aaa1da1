package remote_test

// Restart-detection suite: workers boot empty, so a worker that crashes and
// comes back is NOT safe to serve from — it would answer every stage call
// with zero hits and the coordinator would return merges silently missing
// that shard's slice of the corpus. The engine detects the restart on its
// next synchronous status read — the one every cache miss and every /stats,
// /healthz and /metrics render makes, and every request makes once the
// watch has seen the worker's connection close (watch_test.go) — two
// independent ways (the server boot nonce changes; the mutation generation
// regresses to zero after recorded progress), reports Built=false so the
// serving tier refuses queries, reports the backend unhealthy with a
// state-lost error, and recovers via a snapshot restore.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/shard"
)

func freshLocal(t *testing.T, cfg core.Config) *shard.Local {
	t.Helper()
	l, err := shard.NewLocal(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRestartedEmptyWorkerDetected(t *testing.T) {
	const seed = 43
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := remoteEngine(t, 3, 1, cfg, remote.ClientOptions{})
	ingestAll(t, eng, ds)

	// Learn the healthy baseline: boot nonces, generations, reference
	// answers, and a snapshot for the recovery step.
	for _, st := range eng.Status().Backends {
		if !st.Healthy {
			t.Fatalf("healthy engine reports %+v", st)
		}
	}
	genBefore := eng.Status().Gen
	if genBefore == 0 {
		t.Fatal("ingested engine must have a nonzero generation")
	}
	var snap bytes.Buffer
	if err := eng.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	queries := ds.Queries[:3]
	want := make([]*core.Result, len(queries))
	for i, q := range queries {
		res, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	if !eng.Status().Built {
		t.Fatal("healthy engine must report built")
	}

	// Restart worker 1 empty; the very next status read sees a new server
	// instance with a zero generation behind recorded progress, and reports
	// unbuilt in that same snapshot.
	hosts[1].restart(freshLocal(t, cfg))
	status := eng.Status()
	st := status.Backends
	if st[1].Healthy {
		t.Fatal("restarted-empty worker must report unhealthy")
	}
	if !strings.Contains(st[1].Error, "state lost") {
		t.Fatalf("backend error should say state lost, got %q", st[1].Error)
	}
	if status.Built {
		t.Fatal("engine with a state-lost shard must not report built — serving would return partial merges")
	}

	hosts[2].restart(freshLocal(t, cfg))
	if st = eng.Status().Backends; st[2].Healthy {
		t.Fatal("second restarted-empty worker must be marked state-lost")
	}

	// Recovery: restart the remaining worker empty too, restore the
	// snapshot through the engine (segments travel over RPC), and the
	// marks clear — answers come back byte-identical.
	hosts[0].restart(freshLocal(t, cfg))
	if err := eng.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !eng.Status().Built {
		t.Fatal("restored engine must report built")
	}
	for _, st := range eng.Status().Backends {
		if !st.Healthy {
			t.Fatalf("restored engine reports %+v", st)
		}
	}
	for i, q := range queries {
		got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Objects, want[i].Objects) {
			t.Fatalf("%s: restored engine diverges from pre-crash answers", q.ID)
		}
	}
}
