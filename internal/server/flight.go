package server

import (
	"errors"
	"strconv"
	"strings"
	"sync"
)

// flightGroup coalesces concurrent duplicate work: while one request (the
// leader) computes the result for a key, every other request needing the
// same key parks and shares the leader's result instead of recomputing it —
// the classic single-flight guard against a thundering herd of identical
// cache misses, made batch-aware: a request joins all of its keys at once,
// leads the ones nobody holds and waits for the rest. A request never waits
// while it holds keys — it finishes every key it leads first — so requests
// with crossing keys ({A,B} and {B,A}) cannot deadlock.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	key  string
	done chan struct{}
	frag *fragment
	err  error
	// shared marks an outcome of a batch of several keys: an error then may
	// belong to another key's query, not this one.
	shared bool
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// errFlightAborted is what waiters see when the leader's computation
// panicked instead of returning: an error, not a nil answer — and never a
// hang.
var errFlightAborted = errors.New("server: coalesced query aborted: leader panicked")

// join claims distinct keys in one step: calls[i] is keys[i]'s flight, and
// led[i] reports that this caller created it and so must run it.
func (g *flightGroup) join(keys []string) (calls []*flightCall, led []bool) {
	calls, led = make([]*flightCall, len(keys)), make([]bool, len(keys))
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, k := range keys {
		if calls[i] = g.calls[k]; calls[i] == nil {
			calls[i] = &flightCall{key: k, done: make(chan struct{})}
			g.calls[k], led[i] = calls[i], true
		}
	}
	return calls, led
}

// run computes the calls this caller leads with one fn call (its encoded
// answers align with calls), then drops their keys and wakes their
// waiters. fn must leave its answers visible to late arrivals (e.g. by
// writing the cache) before returning. The finish runs even if fn panics (net/http recovers the
// leader's handler goroutine): a flight left behind would wedge its key
// forever. Waiters then see errFlightAborted.
func (g *flightGroup) run(calls []*flightCall, fn func() ([]*fragment, error)) {
	completed := false
	defer func() {
		g.mu.Lock()
		for _, c := range calls {
			if !completed {
				c.frag, c.err = nil, errFlightAborted
			}
			c.shared = len(calls) > 1
			delete(g.calls, c.key)
		}
		g.mu.Unlock()
		for _, c := range calls {
			close(c.done)
		}
	}()
	frags, err := fn()
	for i, c := range calls {
		c.err = err
		if err == nil {
			c.frag = frags[i]
		}
	}
	completed = true
}

// flightKey scopes a cache key to an ingest generation, as
// "<gen>\x00<key>": waiters must only share an answer computed against the
// corpus they queried.
func flightKey(key string, gen uint64) string {
	var gb [20]byte
	g := strconv.AppendUint(gb[:0], gen, 10)
	var sb strings.Builder
	sb.Grow(len(g) + 1 + len(key))
	sb.Write(g)
	sb.WriteByte(0)
	sb.WriteString(key)
	return sb.String()
}
