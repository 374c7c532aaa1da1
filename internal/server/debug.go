package server

import (
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// SpanJSON is one traced span on the wire: the query's span tree, as echoed
// by debug=true responses and /debug/queries entries.
type SpanJSON struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// StartMs is the span's start offset from the trace root in
	// milliseconds; DurationMs its measured duration.
	StartMs    float64     `json:"start_ms"`
	DurationMs float64     `json:"duration_ms"`
	Children   []*SpanJSON `json:"children,omitempty"`
}

// spanTree converts an exported span slice into its JSON tree; nil when the
// trace recorded nothing.
func spanTree(spans []obs.SpanData) *SpanJSON {
	roots := obs.Tree(spans)
	if len(roots) == 0 {
		return nil
	}
	// A server trace has exactly one root ("query"); defensive wire data
	// with several roots keeps only the first — the rest would be forged.
	return toSpanJSON(roots[0])
}

func toSpanJSON(n *obs.Node) *SpanJSON {
	out := &SpanJSON{
		Name:       n.Name,
		Detail:     n.Detail,
		StartMs:    float64(n.Start.Microseconds()) / 1000,
		DurationMs: float64(n.Dur.Microseconds()) / 1000,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, toSpanJSON(c))
	}
	return out
}

// slowEntry is one retained request trace: a /query, or a whole
// /query/batch under one root span, named by its first query (and first
// plan kind) with its size beside it.
type slowEntry struct {
	At         time.Time `json:"at"`
	Query      string    `json:"query"`
	BatchSize  int       `json:"batch_size"`
	PlanKind   string    `json:"plan_kind"`
	Cached     bool      `json:"cached"`
	DurationMs float64   `json:"duration_ms"`
	Trace      *SpanJSON `json:"trace,omitempty"`
}

// slowLogSize is the /debug/queries retention: the slowest recent traces
// it keeps.
const slowLogSize = 16

// slowLogWindow bounds how long an entry stays interesting: a morning's
// slow query should not crowd out this minute's incident.
const slowLogWindow = 10 * time.Minute

// slowLog retains the N slowest queries of the recent past. Admission is
// slowest-wins — a new entry evicts the current fastest once full — but
// entries past the recency window expire first, so the log converges on
// "the slowest queries lately" rather than "the slowest queries ever".
type slowLog struct {
	mu      sync.Mutex
	entries []slowEntry
}

// admits reports whether a query finished at now taking durationMs would
// enter the log, so the server builds a span tree only for one that would.
func (l *slowLog) admits(now time.Time, durationMs float64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expire(now)
	return l.victim(durationMs) >= 0
}

// note offers one finished query to the log.
func (l *slowLog) note(e slowEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expire(e.At)
	switch i := l.victim(e.DurationMs); {
	case i == len(l.entries):
		l.entries = append(l.entries, e)
	case i >= 0:
		l.entries[i] = e
	}
}

// victim is where an entry taking durationMs goes: len(entries) while the
// log has room; once full, the fastest retained entry if this one is slower
// (slowest wins), else -1. Callers hold l.mu and have expired the log.
func (l *slowLog) victim(durationMs float64) int {
	if len(l.entries) < slowLogSize {
		return len(l.entries)
	}
	fastest := 0
	for i := 1; i < len(l.entries); i++ {
		if l.entries[i].DurationMs < l.entries[fastest].DurationMs {
			fastest = i
		}
	}
	if durationMs > l.entries[fastest].DurationMs {
		return fastest
	}
	return -1
}

// expire drops entries older than the recency window; callers hold l.mu.
func (l *slowLog) expire(now time.Time) {
	kept := l.entries[:0]
	for _, e := range l.entries {
		if now.Sub(e.At) <= slowLogWindow {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(l.entries); i++ {
		l.entries[i] = slowEntry{} // release retained traces
	}
	l.entries = kept
}

// snapshot returns the retained entries, slowest first.
func (l *slowLog) snapshot() []slowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expire(time.Now())
	out := make([]slowEntry, len(l.entries))
	copy(out, l.entries)
	sort.Slice(out, func(i, j int) bool { return out[i].DurationMs > out[j].DurationMs })
	return out
}

// debugQueriesResponse is the /debug/queries payload.
type debugQueriesResponse struct {
	Capacity int         `json:"capacity"`
	Queries  []slowEntry `json:"queries"`
}

// allowMethodQuiet is the debug-tier variant of allowMethod: the same
// uniform 405 + Allow contract, but observability traffic never counts into
// the serving error metrics (nor, anywhere on the debug tier, into the
// result cache or latency histogram).
func allowMethodQuiet(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{
			"error": method + " required",
		})
		return false
	}
	return true
}

// handleDebugQueries serves the slow-query inspector: the slowest recent
// traces, slowest first, with each trace's full span tree.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if !allowMethodQuiet(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, debugQueriesResponse{
		Capacity: slowLogSize,
		Queries:  s.slow.snapshot(),
	})
}

// DebugHandler returns the opt-in debug listener's handler: the slow-query
// inspector plus the standard net/http/pprof surface. Serve it on a
// separate, non-public address (cmd/lovod's -debug-addr) — profiles expose
// internals the query port should not.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	// pprof's handlers answer GET; enforce that uniformly here since the
	// stock handlers accept anything.
	get := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !allowMethodQuiet(w, r, http.MethodGet) {
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/debug/pprof/", get(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", get(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", get(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", get(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", get(pprof.Trace))
	return mux
}
