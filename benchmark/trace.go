package benchmark

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// The traced pass records harness-side spans: one around every call the
// harness makes into a layer's public function. Nothing is recorded inside
// the program (in-program hooks are a later issue). Spans live in memory and
// are written to the trace file when the run ends.

// Span is one timed call. Spans of one operation share Op; Parent is the ID
// of the span whose call caused this one, or -1 for an operation's root.
type Span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartUs and EndUs are microseconds since the trace began.
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Replay marks a call repeated outside the operation to time a layer
	// the operation only reaches through another layer's function (the
	// vector search inside SearchPlanned, say). Replays are roots: they
	// never count towards an operation's self times.
	Replay bool `json:"replay,omitempty"`
}

func (s Span) dur() time.Duration {
	return time.Duration((s.EndUs - s.StartUs) * float64(time.Microsecond))
}

// tracer collects spans; scatter legs record from parallel goroutines.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return us(time.Since(t.t0)) }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Op: op, Parent: parent, Name: name, StartUs: start})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].EndUs = end
	t.mu.Unlock()
}

// timed records fn as a child span of parent and returns its duration.
func (t *tracer) timed(op, parent int, name string, fn func()) time.Duration {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].dur()
}

// replay records fn as a replay span of op and returns its duration.
func (t *tracer) replay(op int, name string, fn func()) time.Duration {
	id := t.begin(op, -1, name)
	fn()
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Replay = true
	return t.spans[id].dur()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap (parallel
// scatter legs), so the covered part is the union of their intervals clipped
// to the parent's.
func selfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(children[s.ID], s.StartUs, s.EndUs)
	}
	return self
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi]: the time an operation spent inside at least one of them.
func covered(spans []Span, lo, hi float64) time.Duration {
	sorted := slices.Clone(spans)
	slices.SortFunc(sorted, func(a, b Span) int { return cmp.Compare(a.StartUs, b.StartUs) })
	total, edge := 0.0, lo
	for _, s := range sorted {
		from, to := max(s.StartUs, edge), min(s.EndUs, hi)
		if to > from {
			total += to - from
			edge = to
		}
	}
	return time.Duration(total * float64(time.Microsecond))
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []Span `json:"spans"`
}

// write saves the trace as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
