package benchmark

import (
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// drawn records a schedule's first n draws.
func drawn(s schedule, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s()
	}
	return out
}

// inputs digests everything a run generates from one seed.
func inputs(t *testing.T, seed uint64) map[string]string {
	t.Helper()
	corpus := genCorpus(seed, 0.04)
	pool, err := genPool(seed, streamPool, 512, corpus.Table2)
	if err != nil {
		t.Fatal(err)
	}
	clips, err := genClips(seed, liveClipBase, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{
		"corpus": digest(corpus.Data.Videos),
		"pool":   digest(pool),
		"clips":  digest(clips),
	}
	for client := 0; client < maxClients; client++ {
		out["perm"] += digest(drawn(permSchedule(seed, len(pool), client, maxClients), 300))
		out["zipf"] += digest(drawn(zipfSchedule(seed, hotTexts, client, 1.1), 300))
	}
	return out
}

func TestGeneratorDeterministicInSeed(t *testing.T) {
	a, again, b := inputs(t, 7), inputs(t, 7), inputs(t, 8)
	for name, d := range a {
		if again[name] != d {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if b[name] == d {
			t.Errorf("%s: different seeds gave identical inputs", name)
		}
	}
}

func TestCorpusVideoIDsAreDense(t *testing.T) {
	corpus := genCorpus(3, 0.04)
	if len(corpus.Table2) == 0 {
		t.Fatal("corpus has no Table II queries")
	}
	for i, v := range corpus.Data.Videos {
		if v.ID != i {
			t.Fatalf("video %d has ID %d: shards balance only on IDs 0..V-1", i, v.ID)
		}
		for _, f := range v.Frames {
			if f.VideoID != v.ID {
				t.Fatalf("video %d holds a frame of video %d", v.ID, f.VideoID)
			}
		}
	}
}

func TestPoolTextsAreDistinctAndParse(t *testing.T) {
	corpus := genCorpus(5, 0.04)
	pool, err := genPool(5, streamPool, 4096, corpus.Table2)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	enc := core.NewQueryEncoder(core.Config{Seed: 1})
	for _, text := range pool {
		if seen[text] {
			t.Errorf("pool repeats %q", text)
		}
		seen[text] = true
		if len(query.Parse(text).Terms) == 0 {
			t.Errorf("%q parses to no vocabulary term", text)
		}
		// The serving tier answers 400 to a text with no fast-search
		// vector; no pooled text may be one.
		if _, err := enc.Encode(text); err != nil {
			t.Errorf("%q: %v", text, err)
		}
	}
	for i, q := range corpus.Table2 {
		if pool[i] != q.Text {
			t.Errorf("pool[%d] = %q, want Table II query %q", i, pool[i], q.Text)
		}
	}
}

func TestPermScheduleDrawsWithoutReplacement(t *testing.T) {
	const pool = 1000
	seen := make(map[int]bool)
	for client := 0; client < maxClients; client++ {
		for _, i := range drawn(permSchedule(9, pool, client, maxClients), pool/maxClients) {
			if seen[i] {
				t.Fatalf("text %d drawn twice before the pool was exhausted", i)
			}
			seen[i] = true
		}
	}
}

func TestZipfScheduleStaysInTheHotSet(t *testing.T) {
	counts := make([]int, hotTexts)
	for _, i := range drawn(zipfSchedule(9, hotTexts, 0, 1.1), 20000) {
		if i < 0 || i >= hotTexts {
			t.Fatalf("drew text %d outside the %d hot texts", i, hotTexts)
		}
		counts[i]++
	}
	if counts[0] <= counts[hotTexts/2] {
		t.Errorf("head text drawn %d times, mid-tail text %d: not a skewed popularity", counts[0], counts[hotTexts/2])
	}
}

func TestClipIDsAreUniqueAndInRange(t *testing.T) {
	clips, err := genClips(11, liveClipBase, 200)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for k, c := range clips {
		if c.ID != liveClipBase+k || c.ID > core.MaxVideoID || seen[c.ID] {
			t.Fatalf("clip %d has ID %d", k, c.ID)
		}
		seen[c.ID] = true
		if len(c.Frames) != clipFrames {
			t.Fatalf("clip %d has %d frames", c.ID, len(c.Frames))
		}
		for i, f := range c.Frames {
			if f.VideoID != c.ID || f.Index != i {
				t.Fatalf("clip %d frame %d is (video %d, index %d)", c.ID, i, f.VideoID, f.Index)
			}
		}
	}
	if _, err := genClips(11, core.MaxVideoID, 2); err == nil {
		t.Error("clips past the video ID space were not refused")
	}
}
