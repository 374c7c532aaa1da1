package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/maphash"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// sample is one operation the generator sent.
type sample struct {
	// due is when the operation should have been sent: its slot in the
	// open-loop schedule, or the moment the previous reply had been read
	// for a closed-loop client. Open-loop latency runs from due, so a
	// stalled server inflates the requests queued behind the stall.
	due, sent, done time.Time
	// texts are the pool indices asked (one per /query, batchSize per
	// /query/batch, none for /ingest).
	texts []int
	ok    bool
	// warm marks warm-up traffic: checked for correctness, never timed.
	warm bool
	// cached and hash describe a /query reply: the cached flag and a hash
	// of its "objects" bytes.
	cached bool
	hash   uint64
	size   int
	// body is kept when the reply will be replayed on the reference.
	body []byte
}

// rtt is a closed-loop request's latency: send -> full body read.
func (s sample) rtt() time.Duration { return s.done.Sub(s.sent) }

// sojourn is an open-loop request's latency: due time -> full body read.
func (s sample) sojourn() time.Duration { return s.done.Sub(s.due) }

// late is how long after its due time the request was sent.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// queryBody renders a /query request for one pool text.
func queryBody(quoted []byte, options string) []byte {
	b := make([]byte, 0, len(quoted)+len(options)+24)
	b = append(b, `{"query":`...)
	b = append(b, quoted...)
	b = append(b, `,"options":`...)
	b = append(b, options...)
	return append(b, '}')
}

// batchBody renders a /query/batch request.
func batchBody(quoted [][]byte, idx []int, options string) []byte {
	b := []byte(`{"queries":[`)
	for i, ti := range idx {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, quoted[ti]...)
	}
	b = append(b, `],"options":`...)
	b = append(b, options...)
	return append(b, '}')
}

// quoteAll JSON-quotes the pool once, before any clock starts.
func quoteAll(pool []string) [][]byte {
	out := make([][]byte, len(pool))
	for i, t := range pool {
		out[i] = []byte(strconv.Quote(t)) // pool texts are ASCII: Go and JSON quoting agree
	}
	return out
}

// queryReply is the part of a /query response the checks read. Plan and
// Objects stay raw: objects are compared as bytes, and the plan is decoded
// only when the reply is replayed.
type queryReply struct {
	Objects         json.RawMessage `json:"objects"`
	CandidateFrames int             `json:"candidate_frames"`
	Cached          bool            `json:"cached"`
	Plan            json.RawMessage `json:"plan"`
}

// batchReply is a /query/batch response.
type batchReply struct {
	Results []queryReply `json:"results"`
}

var (
	objectsPrefix = []byte(`{"objects":`)
	objectsSuffix = []byte(`,"candidate_frames":`)
	cachedTrue    = []byte(`"cached":true`)
)

// splitReply extracts the objects bytes and the cached flag of a /query
// response without a full decode: the generator shares two cores with the
// server, so what it does per reply is kept small. Objects hold only numbers,
// so the suffix cannot occur inside them; an unexpected layout falls back to
// the JSON decoder.
func splitReply(body []byte) (objects []byte, cached, ok bool) {
	if bytes.HasPrefix(body, objectsPrefix) {
		if i := bytes.Index(body, objectsSuffix); i > 0 {
			return body[len(objectsPrefix):i], bytes.Contains(body[i:], cachedTrue), true
		}
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil || r.Objects == nil {
		return nil, false, false
	}
	return r.Objects, r.Cached, true
}

// hashSeed keys the reply hashes, which are only ever compared within one
// process.
var hashSeed = maphash.MakeSeed()

func hashBytes(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// closedLoop is one client: it sends its next request only after the previous
// reply has been read in full, from warmStart until end. Requests sent before
// start are warm-up; the request in flight at end is dropped.
func (r *runner) closedLoop(ctx context.Context, client int, sched schedule, start, end time.Time) []sample {
	sampler := rand.New(rand.NewPCG(mix(r.cfg.Seed, streamSample, uint64(client)), 7))
	var out []sample
	due := time.Now()
	for due.Before(end) && ctx.Err() == nil {
		s := sample{due: due}
		var body []byte
		path := "/query"
		if r.w.Traffic == trafficBatch {
			path = "/query/batch"
			s.texts = make([]int, batchSize)
			for i := range s.texts {
				s.texts[i] = sched()
			}
			body = batchBody(r.quoted, s.texts, r.w.Options)
		} else {
			s.texts = []int{sched()}
			body = queryBody(r.quoted[s.texts[0]], r.w.Options)
		}
		s.sent = time.Now()
		reply, status, err := r.st.post(ctx, path, bytes.NewReader(body))
		s.done = time.Now()
		due = s.done
		if s.done.After(end) {
			break
		}
		s.warm = s.sent.Before(start)
		s.size = len(reply)
		s.ok = err == nil && status == http.StatusOK
		keep := sampler.IntN(r.w.sampleEvery()) == 0
		if s.ok && r.w.Traffic != trafficBatch {
			var objects []byte
			objects, s.cached, s.ok = splitReply(reply)
			s.hash = hashBytes(objects)
		}
		if keep && s.ok {
			s.body = reply
		}
		out = append(out, s)
	}
	return out
}

// openLoopWriter posts clip k at start + k*interval whatever happened to the
// clips before it, on one connection: a reply that takes longer than the
// interval makes the next clips late, and their latency (timed from their due
// time) says so.
func (r *runner) openLoopWriter(ctx context.Context, bodies [][]byte, start time.Time, interval time.Duration) []sample {
	out := make([]sample, 0, len(bodies))
	for k, body := range bodies {
		s := sample{due: start.Add(time.Duration(k) * interval)}
		if sleepUntil(ctx, s.due); ctx.Err() != nil {
			return out
		}
		s.sent = time.Now()
		reply, status, err := r.st.post(ctx, "/ingest", bytes.NewReader(body))
		s.done = time.Now()
		s.size = len(reply)
		s.ok = err == nil && status == http.StatusOK
		out = append(out, s)
	}
	return out
}
