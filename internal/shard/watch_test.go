package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
)

// awaitPushed polls Pushed until every backend's view is live.
func awaitPushed(t *testing.T, e *Engine) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gen, built, ok := e.Pushed(); ok && built {
			return gen
		}
		if time.Now().After(deadline) {
			t.Fatal("the pushed views never went live")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPushedReadsYourWrites: Pushed never answers a generation older than a
// write this engine has finished, whether the write is an ingest, an index
// build or both racing a reader — and once the writes stop, the views catch
// up with Status without another write.
func TestPushedReadsYourWrites(t *testing.T) {
	const seed = 73
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	e, err := New(2, core.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	half := len(ds.Videos) / 2
	for i := range ds.Videos[:half] {
		if err := e.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if gen := awaitPushed(t, e); gen != e.Status().Gen {
		t.Fatalf("idle engine: pushed gen %d, status gen %d", gen, e.Status().Gen)
	}

	var readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Pushed()
			}
		}
	}()
	for i := range ds.Videos[half:] {
		if err := e.Ingest(&ds.Videos[half+i]); err != nil {
			t.Fatal(err)
		}
		want := e.Status().Gen
		if gen, _, ok := e.Pushed(); ok && gen != want {
			t.Fatalf("after ingest %d: pushed gen %d, want %d or no view", i, gen, want)
		}
	}
	if err := e.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	want := e.Status().Gen
	if gen, _, ok := e.Pushed(); ok && gen != want {
		t.Fatalf("after build: pushed gen %d, want %d or no view", gen, want)
	}
	close(stop)
	readers.Wait()
	if gen := awaitPushed(t, e); gen != want {
		t.Fatalf("settled: pushed gen %d, want %d", gen, want)
	}
}

// TestCloseStopsWatchers: Close returns only once every watcher has exited,
// without waiting out a heartbeat, and leaves no live view behind.
func TestCloseStopsWatchers(t *testing.T) {
	e, err := New(3, core.Config{Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	awaitPushed(t, e)
	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= remote.Heartbeat {
		t.Fatalf("Close took %v: it waited out a held watch", took)
	}
	if _, _, ok := e.Pushed(); ok {
		t.Fatal("a closed engine still serves a pushed view")
	}
}
