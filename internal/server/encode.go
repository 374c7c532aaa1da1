package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// encoder appends the success bodies of /query and /query/batch to a pooled
// buffer without reflection. Its output is byte for byte what
// encoding/json's Encoder writes for the same QueryResponse or
// batchResponse: field order and omitempty as the struct tags say, ES6
// float formatting (bit size 32 for the float32 score), HTML-escaped
// strings and a trailing newline. The trace subtree is rare (debug=true
// only) and goes through json.Marshal. The first value JSON cannot carry
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
// no longer turn into a 200 with an empty body. It reports whether the
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

// batchResponse appends {"results":[...]}.
func (e *encoder) batchResponse(results []QueryResponse) {
	e.b = append(e.b, `{"results":`...)
	if results == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range results {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.queryResponse(&results[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// queryResponse appends one QueryResponse.
func (e *encoder) queryResponse(r *QueryResponse) {
	e.b = append(e.b, `{"objects":`...)
	if r.Objects == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Objects {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.object(&r.Objects[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"candidate_frames":`...)
	e.int(int64(r.CandidateFrames))
	e.b = append(e.b, `,"fast_search_ms":`...)
	e.float(r.FastSearchMs, 64)
	e.b = append(e.b, `,"rerank_ms":`...)
	e.float(r.RerankMs, 64)
	e.b = append(e.b, `,"cached":`...)
	e.bool(r.Cached)
	e.b = append(e.b, `,"plan":`...)
	e.plan(&r.Plan)
	if r.Trace != nil {
		e.b = append(e.b, `,"trace":`...)
		e.marshal(r.Trace)
	}
	e.b = append(e.b, '}')
}

// object appends one ObjectJSON.
func (e *encoder) object(o *ObjectJSON) {
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
