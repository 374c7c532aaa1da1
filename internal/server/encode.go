package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// encoder appends the success bodies of /query and /query/batch to a pooled
// buffer without reflection. Its output is byte for byte what
// encoding/json's Encoder writes for the same QueryResponse or
// batchResponse, though it never builds one: each answer's fragment is
// encoded once from its *core.Result and spliced into the replies (see
// fragment). Field order and omitempty as the struct tags say, ES6 float
// formatting (bit size 32 for the float32 score), HTML-escaped strings and
// a trailing newline. The trace subtree is rare (debug=true only) and goes
// through json.Marshal. The first value JSON cannot carry
// (NaN, ±Inf) sticks in err, and the caller answers an error instead of
// the body.
type encoder struct {
	b   []byte
	err error
}

var encoderPool = sync.Pool{New: func() any { return &encoder{b: make([]byte, 0, 16<<10)} }}

// maxPooledBody bounds the buffer an encoder keeps in the pool: a scan
// batch's body is ~110 KB, while a 256-query batch of deep answers can
// reach megabytes that should go back to the GC.
const maxPooledBody = 1 << 20

// reply answers 200 with the body fill appends to a pooled encoder. A body
// that fails to encode answers a 500 JSON error, counted as "internal",
// instead: the body is complete before any header goes out, so a NaN can
// no longer turn into a 200 with an empty body, and the 200 carries its
// Content-Length rather than chunked framing. It reports whether the
// success body went out.
func (s *Server) reply(w http.ResponseWriter, fill func(e *encoder)) bool {
	e := encoderPool.Get().(*encoder)
	defer func() {
		if cap(e.b) <= maxPooledBody {
			e.b, e.err = e.b[:0], nil
			encoderPool.Put(e)
		}
	}()
	fill(e)
	if e.err != nil {
		s.fail(w, http.StatusInternalServerError, "encoding the response: %v", e.err)
		return false
	}
	e.b = append(e.b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.b)
	return true
}

// replyJSON is reply for bodies encoding/json renders: the rarely requested
// ones (/stats, /healthz, /ingest), kept reflective but buffered, so they
// too fail loudly rather than half-written.
func (s *Server) replyJSON(w http.ResponseWriter, v any) bool {
	return s.reply(w, func(e *encoder) { e.marshal(v) })
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// marshal appends v as encoding/json renders it.
func (e *encoder) marshal(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		e.fail(err)
		return
	}
	e.b = append(e.b, b...)
}

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *encoder) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float appends f the way encoding/json does for a float of the given bit
// size: shortest round-trip digits, in 'e' form below 1e-6 or from 1e21 up
// (compared at that bit size) and 'f' form otherwise, with a two-digit
// negative exponent cut to one ("e-07" becomes "e-7").
func (e *encoder) float(f float64, bits int) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, bits)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b := strconv.AppendFloat(e.b, f, format, -1, bits)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

const hexDigits = "0123456789abcdef"

// string appends s quoted as encoding/json does with HTML escaping on:
// control bytes, '"', '\\', '<', '>' and '&' escaped, invalid UTF-8 as
// \ufffd, and U+2028/U+2029 escaped for JSONP safety.
func (e *encoder) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// fragment is one computed answer's share of every reply that serves it:
// `{"objects":[…],"candidate_frames":…,"fast_search_ms":…,"rerank_ms":…`,
// open at its end, which holds every float the answer carries. It is
// encoded once, when the answer's flight publishes, and spliced into each
// reply — the miss, every coalesced waiter, every cache hit — with only
// "cached" and the plan written around it. err is the encoding error of an
// answer JSON cannot carry (NaN, ±Inf): every reply splicing it answers the
// 500.
type fragment struct {
	b   []byte
	err error
}

// encodeFragment encodes res's fragment in a pooled encoder and keeps an
// exact-size copy, so a cache entry holds no spare capacity.
func encodeFragment(res *core.Result) *fragment {
	e := encoderPool.Get().(*encoder)
	defer func() {
		if cap(e.b) <= maxPooledBody {
			e.b, e.err = e.b[:0], nil
			encoderPool.Put(e)
		}
	}()
	e.result(res)
	if e.err != nil {
		return &fragment{err: e.err}
	}
	return &fragment{b: bytes.Clone(e.b)}
}

// result appends res's fragment. Objects are always an array (never null),
// and the stage times are milliseconds at microsecond resolution.
func (e *encoder) result(res *core.Result) {
	e.b = append(e.b, `{"objects":[`...)
	for i := range res.Objects {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.object(&res.Objects[i])
	}
	e.b = append(e.b, `],"candidate_frames":`...)
	e.int(int64(res.CandidateFrames))
	e.b = append(e.b, `,"fast_search_ms":`...)
	e.float(float64(res.FastSearch.Microseconds())/1000, 64)
	e.b = append(e.b, `,"rerank_ms":`...)
	e.float(float64(res.Rerank.Microseconds())/1000, 64)
}

// object appends one result object in ObjectJSON's wire form.
func (e *encoder) object(o *core.ResultObject) {
	e.b = append(e.b, `{"video_id":`...)
	e.int(int64(o.VideoID))
	e.b = append(e.b, `,"frame_idx":`...)
	e.int(int64(o.FrameIdx))
	e.b = append(e.b, `,"box":{"x":`...)
	e.float(o.Box.X, 64)
	e.b = append(e.b, `,"y":`...)
	e.float(o.Box.Y, 64)
	e.b = append(e.b, `,"w":`...)
	e.float(o.Box.W, 64)
	e.b = append(e.b, `,"h":`...)
	e.float(o.Box.H, 64)
	e.b = append(e.b, `},"score":`...)
	e.float(float64(o.Score), 32)
	e.b = append(e.b, `,"patch_id":`...)
	e.int(o.PatchID)
	e.b = append(e.b, '}')
}

// answer is one query's reply: the fragment of the answer it serves, and
// what this request adds around it.
type answer struct {
	frag   *fragment
	cached bool
	plan   core.Plan
	// trace is the request's span tree, echoed when it asked for debug.
	trace *SpanJSON
}

// answer appends one QueryResponse: a's fragment, then "cached", the plan
// and the trace.
func (e *encoder) answer(a *answer) {
	if a.frag.err != nil {
		e.fail(a.frag.err)
		return
	}
	e.b = append(e.b, a.frag.b...)
	e.b = append(e.b, `,"cached":`...)
	e.bool(a.cached)
	e.b = append(e.b, `,"plan":`...)
	plan := toPlanJSON(a.plan)
	e.plan(&plan)
	if a.trace != nil {
		e.b = append(e.b, `,"trace":`...)
		e.marshal(a.trace)
	}
	e.b = append(e.b, '}')
}

// answers appends a batchResponse: {"results":[...]}.
func (e *encoder) answers(as []answer) {
	e.b = append(e.b, `{"results":[`...)
	for i := range as {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.answer(&as[i])
	}
	e.b = append(e.b, "]}"...)
}

// plan appends one PlanJSON, leaving out its omitempty fields at zero.
func (e *encoder) plan(p *PlanJSON) {
	e.b = append(e.b, `{"kind":`...)
	e.string(p.Kind)
	if p.Exact {
		e.b = append(e.b, `,"exact":true`...)
	}
	e.b = append(e.b, `,"fast_k":`...)
	e.int(int64(p.FastK))
	e.b = append(e.b, `,"shard_k":`...)
	e.int(int64(p.ShardK))
	if p.NProbe != 0 {
		e.b = append(e.b, `,"nprobe":`...)
		e.int(int64(p.NProbe))
	}
	if p.Ef != 0 {
		e.b = append(e.b, `,"ef":`...)
		e.int(int64(p.Ef))
	}
	e.b = append(e.b, `,"rerank_frames":`...)
	e.int(int64(p.RerankFrames))
	e.b = append(e.b, `,"top_n":`...)
	e.int(int64(p.TopN))
	if p.SkipRerank {
		e.b = append(e.b, `,"skip_rerank":true`...)
	}
	if p.Int8 {
		e.b = append(e.b, `,"int8":true`...)
	}
	e.b = append(e.b, '}')
}
