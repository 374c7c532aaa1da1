package server

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// cacheKey canonicalises (query text, resolved plan) into the cache key.
// Plan.Key covers every field that changes the answer and excludes the
// provenance fields (kind, predicted recall), so a pinned plan and an
// adaptive plan that resolved to the same knobs share one entry; request
// Workers never participates (results are identical at every width, by the
// engine's determinism contract).
func cacheKey(text string, plan core.Plan) string {
	return text + "\x00" + plan.Key()
}

// resultCache is a bounded LRU over query results, stamped with the
// backend's ingest generation: an entry computed under another generation
// is stale — new footage may have changed the answer — which is how ingest
// invalidates the cache without a callback. The first get or put at a
// generation newer than any seen before sweeps out every entry not stamped
// with it, so stale answers do not hold memory until their own lookup. An
// entry the sweep cannot judge — put late under an older generation, or
// looked up after the generation went down — is dropped on lookup.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
	// newest is the highest generation a get or put has carried.
	newest  uint64
	hits    uint64
	misses  uint64
	evicted uint64
	// coalesced counts misses that shared another in-flight computation
	// of the same key instead of recomputing (single-flight waiters).
	coalesced uint64
}

type cacheEntry struct {
	key string
	gen uint64
	res *core.Result
}

// newResultCache builds a cache holding at most capacity entries;
// capacity <= 0 disables caching entirely.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the cached result for key if present and computed under the
// current generation. Results are shared pointers; callers must not mutate.
func (c *resultCache) get(key string, gen uint64) (*core.Result, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observe(gen)
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.gen != gen {
		// Stale: the corpus changed since this answer was computed.
		c.ll.Remove(el)
		delete(c.items, key)
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return ent.res, true
}

// put stores a result computed under gen, evicting the least-recently-used
// entry when full.
func (c *resultCache) put(key string, gen uint64, res *core.Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observe(gen)
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.gen = gen
		ent.res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// observe sweeps out every entry not stamped with gen when gen is newer
// than any generation seen before; each swept entry counts as evicted. The
// caller holds mu.
func (c *resultCache) observe(gen uint64) {
	if gen <= c.newest {
		return
	}
	c.newest = gen
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.gen != gen {
			c.ll.Remove(el)
			delete(c.items, ent.key)
			c.evicted++
		}
		el = next
	}
}

// noteCoalesced records one miss that waited on another caller's identical
// in-flight query instead of recomputing. Counted even when caching is
// disabled — coalescing works off the in-flight table, not the LRU.
func (c *resultCache) noteCoalesced() {
	c.mu.Lock()
	c.coalesced++
	c.mu.Unlock()
}

// CacheStats is a counters snapshot for /stats and /metrics.
type CacheStats struct {
	Capacity int    `json:"capacity"`
	Entries  int    `json:"entries"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Evicted counts entries dropped to make room and entries swept out
	// when a newer generation was first seen.
	Evicted uint64 `json:"evicted"`
	// Coalesced counts misses served by sharing another request's
	// in-flight computation (single-flight waiters).
	Coalesced uint64 `json:"coalesced"`
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.cap,
		Entries:   c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evicted:   c.evicted,
		Coalesced: c.coalesced,
	}
}
