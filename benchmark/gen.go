package benchmark

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/query"
	"repro/internal/video"
	"repro/internal/vocab"
)

// Everything the system under test receives is made here from -seed: the
// corpus, the query pool, each client's schedule and the live-ingest clips.
// Equal seeds give equal inputs; nothing below reads the clock.

// Sub-seed streams. Each generated input draws from its own stream so that
// changing how one input is made never shifts another.
const (
	streamSystem uint64 = 1 + iota
	streamCamera
	streamPool
	streamSchedule
	streamFeed
	streamSample
	streamTracePool
)

// mix derives an independent, non-zero sub-seed (splitmix64 finalizer).
func mix(seed, stream, i uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream<<20+i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return z
}

func newRand(seed, stream, i uint64) *rand.Rand {
	s := mix(seed, stream, i)
	return rand.New(rand.NewPCG(s, s^0xa5a5a5a55a5a5a5a))
}

// cameras is the number of generated cameras per corpus: two of each of the
// four dataset generators, so that one unlucky per-camera seed moves the
// corpus statistics (and with them every latency) less.
const cameras = 8

// Corpus is the generated footage of one run plus its Table II queries.
type Corpus struct {
	// Data holds every camera's videos, renumbered 0..V-1 so that the
	// engine's ID-modulo-N placement balances the shards.
	Data datasets.Dataset
	// Table2 lists the generators' benchmark queries, de-duplicated.
	Table2 []datasets.Query
}

var generators = []func(datasets.Config) *datasets.Dataset{
	datasets.Cityscapes, datasets.Bellevue, datasets.QVHighlights, datasets.Beach,
}

// genCorpus draws the cameras round-robin from the four dataset generators.
// scale 1.0 is one paper-sized pass over all four (~11k frames) whatever the
// camera count.
func genCorpus(seed uint64, scale float64) *Corpus {
	c := &Corpus{Data: datasets.Dataset{Name: "gate"}}
	seen := make(map[string]bool)
	for cam := 0; cam < cameras; cam++ {
		ds := generators[cam%len(generators)](datasets.Config{
			Seed:  mix(seed, streamCamera, uint64(cam)),
			Scale: scale * float64(len(generators)) / cameras,
		})
		for i := range ds.Videos {
			c.Data.Videos = append(c.Data.Videos, renumber(ds.Videos[i], len(c.Data.Videos)))
		}
		for _, q := range ds.Queries {
			if !seen[q.Text] {
				seen[q.Text] = true
				c.Table2 = append(c.Table2, q)
			}
		}
	}
	return c
}

// renumber gives a video (and every frame of it) a new ID.
func renumber(v video.Video, id int) video.Video {
	v.ID = id
	for i := range v.Frames {
		v.Frames[i].VideoID = id
	}
	return v
}

// genPool returns n distinct query texts: the corpus' Table II queries first,
// then texts templated from the vocabulary (size × colour × class × clothing
// × behaviour × context). Every templated text names a class, so every text
// embeds to a non-zero fast-search vector.
func genPool(seed, stream uint64, n int, table2 []datasets.Query) ([]string, error) {
	byKind := make(map[vocab.Kind][]string)
	for _, t := range vocab.Terms() {
		byKind[t.Kind] = append(byKind[t.Kind], t.Name)
	}
	rng := newRand(seed, stream, 0)
	// maybe picks one term of the kind, or none.
	maybe := func(k vocab.Kind) string {
		terms := byKind[k]
		if i := rng.IntN(len(terms) + 1); i < len(terms) {
			return terms[i]
		}
		return ""
	}
	pool := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for _, q := range table2 {
		if len(pool) < n && !seen[q.Text] {
			seen[q.Text] = true
			pool = append(pool, q.Text)
		}
	}
	for tries := 0; len(pool) < n; tries++ {
		if tries > 64*n {
			return nil, fmt.Errorf("query pool: vocabulary yields fewer than %d distinct texts", n)
		}
		words := []string{"A"}
		for _, w := range []string{maybe(vocab.KindSize), maybe(vocab.KindColor)} {
			if w != "" {
				words = append(words, w)
			}
		}
		classes := byKind[vocab.KindClass]
		words = append(words, classes[rng.IntN(len(classes))])
		if w := maybe(vocab.KindClothing); w != "" {
			words = append(words, "with", w)
		}
		if w := maybe(vocab.KindBehavior); w != "" {
			words = append(words, w)
		}
		if w := maybe(vocab.KindContext); w != "" {
			words = append(words, "in the", w)
		}
		text := strings.Join(words, " ") + "."
		if !seen[text] {
			seen[text] = true
			pool = append(pool, text)
		}
	}
	return pool, nil
}

// queryTerms lists the vocabulary terms a text parses to, which is what
// datasets.GroundTruth matches scene descriptions against.
func queryTerms(text string) []string {
	p := query.Parse(text)
	out := make([]string, 0, len(p.Terms))
	for _, t := range p.Terms {
		out = append(out, t.Name)
	}
	return out
}

// schedule yields one client's next pool index. Schedules are deterministic
// in (seed, workload, client) and never consult the clock, so a client asks
// the same texts in the same order on every run.
type schedule func() int

// permSchedule walks a shared seeded permutation of the pool, client c of n
// taking every n-th entry: texts are drawn without replacement, so the
// result cache never sees a repeat until the pool wraps around.
func permSchedule(seed uint64, pool, client, clients int) schedule {
	perm := newRand(seed, streamSchedule, 0).Perm(pool)
	next := client
	return func() int {
		i := perm[next%pool]
		next += clients
		return i
	}
}

// zipfSchedule draws from the first hot texts of the pool with Zipf(s)
// popularity, each client from its own stream.
func zipfSchedule(seed uint64, hot, client int, s float64) schedule {
	z := rand.NewZipf(newRand(seed, streamSchedule, uint64(1+client)), s, 1, uint64(hot-1))
	return func() int { return int(z.Uint64()) }
}

// Live-ingest clips: short pieces of fresh footage, each posted as its own
// video.
const (
	clipFrames = 30
	// Video ID ranges, all far above any corpus video's: the open-loop
	// writer's clips, the serial ingest probe's, and the probe's twins that
	// go to Engine.Ingest directly.
	liveClipBase  = 1000
	probeClipBase = 40000
	twinClipBase  = 50000
)

// genClips cuts n clips of clipFrames frames from freshly generated feed
// footage, round-robin over the feed's videos. Clip k is video baseID+k.
func genClips(seed uint64, baseID, n int) ([]video.Video, error) {
	if baseID+n-1 > core.MaxVideoID {
		return nil, fmt.Errorf("clips: %d clips from ID %d exceed the %d-video ID space", n, baseID, core.MaxVideoID)
	}
	// One paper-sized pass is ~10k frames in ~18 videos; each video's tail
	// shorter than a clip is unused, so generate a margin on top.
	scale := max(0.1, 1.3*float64((n+24)*clipFrames)/10000)
	var feed []video.Video
	for _, ds := range datasets.All(datasets.Config{Seed: mix(seed, streamFeed, 0), Scale: scale}) {
		feed = append(feed, ds.Videos...)
	}
	offsets := make([]int, len(feed))
	clips := make([]video.Video, 0, n)
	for progress := true; len(clips) < n && progress; {
		progress = false
		for vi := range feed {
			src := &feed[vi]
			if len(clips) == n || offsets[vi]+clipFrames > len(src.Frames) {
				continue
			}
			id := baseID + len(clips)
			clip := video.Video{ID: id, Name: fmt.Sprintf("live-%d", id), FPS: src.FPS,
				Frames: append([]video.Frame(nil), src.Frames[offsets[vi]:offsets[vi]+clipFrames]...)}
			offsets[vi] += clipFrames
			for i := range clip.Frames {
				clip.Frames[i].VideoID = id
				clip.Frames[i].Index = i
			}
			clips = append(clips, clip)
			progress = true
		}
	}
	if len(clips) < n {
		return nil, fmt.Errorf("clips: feed footage yields %d of %d clips", len(clips), n)
	}
	return clips, nil
}

// digest fingerprints any generated input through its JSON encoding.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // generated inputs are plain data
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
