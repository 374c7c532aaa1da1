package remote

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/video"
)

// ClientOptions tune one shard client; zero values select defaults.
type ClientOptions struct {
	// Dial opens one connection to the worker. The default dials TCP to
	// the client's address with DialTimeout; tests substitute net.Pipe.
	Dial func() (net.Conn, error)
	// PoolSize bounds the idle persistent-connection pool (default 4).
	// More conns dial on demand under concurrency; surplus conns close on
	// release instead of pooling.
	PoolSize int
	// Timeout is the per-call deadline for read-only operations, covering
	// write + execute + read (default 30s). A call that exceeds it
	// surfaces a transport error — and a bounded retry on a fresh
	// connection.
	Timeout time.Duration
	// MutateTimeout is the per-call deadline for mutating operations
	// (ingest, index builds, snapshot load), which do corpus-sized work
	// worker-side; it defaults to the larger of Timeout and 5 minutes so
	// a serving deadline tuned for queries never aborts an ingest
	// mid-flight.
	MutateTimeout time.Duration
	// DialTimeout bounds connection establishment (default 3s) — the
	// fail-fast bound for unreachable workers at boot.
	DialTimeout time.Duration
	// Retries is the redial-and-retry budget for read-only calls after a
	// transport error (default 2). Mutating calls never consume it: once
	// a request may have left the client, retrying could double-apply.
	Retries int
	// MaxFrame bounds response payloads (DefaultMaxFrame when zero).
	MaxFrame uint32
}

func (o ClientOptions) withDefaults(addr string) ClientOptions {
	if o.PoolSize == 0 {
		o.PoolSize = 4
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MutateTimeout == 0 {
		o.MutateTimeout = 5 * time.Minute
		if o.Timeout > o.MutateTimeout {
			o.MutateTimeout = o.Timeout
		}
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.MaxFrame == 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.Dial == nil {
		dt := o.DialTimeout
		o.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, dt) }
	}
	return o
}

// Client is a remote shard: it implements ShardBackend over the wire
// protocol on a pool of persistent connections. Safe for concurrent use —
// each in-flight call owns one pooled connection.
type Client struct {
	addr   string
	opts   ClientOptions
	idle   chan net.Conn
	closed atomic.Bool
}

// NewClient constructs a client for the worker at addr. No connection is
// opened until the first call (Connect reads each worker's status eagerly
// for fail-fast boots).
func NewClient(addr string, opts ClientOptions) *Client {
	opts = opts.withDefaults(addr)
	return &Client{addr: addr, opts: opts, idle: make(chan net.Conn, opts.PoolSize)}
}

// Addr returns the worker address this client dials.
func (c *Client) Addr() string { return c.addr }

// Close drains and closes the idle pool. In-flight calls finish on their
// own connections; subsequent calls fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.drain()
	return nil
}

func (c *Client) drain() {
	for {
		select {
		case conn := <-c.idle:
			conn.Close()
		default:
			return
		}
	}
}

// get checks a connection out of the idle pool, dialing when empty.
// fromPool reports a reused connection — one that may have gone stale since
// its last call (a worker restart kills every pooled connection at once),
// which the retry loop treats as free to replace rather than a strike
// against the bounded retry budget.
func (c *Client) get() (conn net.Conn, fromPool bool, err error) {
	if c.closed.Load() {
		return nil, false, fmt.Errorf("remote %s: client closed", c.addr)
	}
	select {
	case conn = <-c.idle:
		return conn, true, nil
	default:
	}
	conn, err = c.opts.Dial()
	if err != nil {
		return nil, false, fmt.Errorf("remote %s: dial: %w", c.addr, err)
	}
	return conn, false, nil
}

// put returns a healthy connection to the pool (closing it when the pool is
// full or the client closed).
func (c *Client) put(conn net.Conn) {
	if c.closed.Load() {
		conn.Close()
		return
	}
	select {
	case c.idle <- conn:
		// Close may have drained the pool between our closed-check and
		// the enqueue; re-check so a connection can never be stranded
		// (and leaked) in a closed client's pool.
		if c.closed.Load() {
			c.drain()
		}
	default:
		conn.Close()
	}
}

// call performs one request/response exchange. Read-only calls retry on
// transport errors: a failure on a pooled connection is discarded for free
// (a worker restart invalidates the whole pool at once, and the pool bound
// caps how many such discards one call can see), while failures on freshly
// dialed connections consume the bounded retry budget — so a stale pool, a
// dropped packet or a worker that died mid-response costs a redial, not an
// answer. Mutating calls are at-most-once: they dial fresh (never trusting
// a possibly-stale pooled connection) and never retry after the request may
// have been sent. Application-level errors (the worker executed and said
// no) never retry on either path.
func (c *Client) call(op byte, body []byte, mutating bool) ([]byte, error) {
	//lovo:ctx-ok untraced control-plane ops (ingest, build, snapshot); the query path goes through callCtx
	return c.do(context.Background(), op, body, mutating, false)
}

// callCtx is call with the query's tracing context: under a traced context
// every transport attempt — including the retried, failed ones — records a
// sibling "rpc" span, so a flaky or slow leg is attributable from the
// coordinator trace even when the retry machinery hides it from the
// answer.
func (c *Client) callCtx(ctx context.Context, op byte, body []byte) ([]byte, error) {
	return c.do(ctx, op, body, false, false)
}

func (c *Client) do(ctx context.Context, op byte, body []byte, mutating, light bool) ([]byte, error) {
	req := make([]byte, 0, 1+len(body))
	req = append(req, op)
	req = append(req, body...)

	budget := 1 + c.opts.Retries
	if light {
		budget = 1
	}
	var lastErr error
	for budget > 0 {
		var conn net.Conn
		var fromPool bool
		var err error
		if mutating {
			conn, err = c.opts.Dial()
			if err != nil {
				// Nothing was sent: a dial failure is safe to retry
				// even for mutations.
				lastErr = fmt.Errorf("remote %s: dial: %w", c.addr, err)
				budget--
				continue
			}
		} else if conn, fromPool, err = c.get(); err != nil {
			lastErr = err
			budget--
			continue
		}

		_, asp := obs.Start(ctx, "rpc")
		resp, err := c.exchange(conn, req, mutating, light)
		if asp.On() {
			if err != nil {
				asp.Detail(fmt.Sprintf("%s addr=%s err=%v", opName(op), c.addr, err))
			} else {
				asp.Detail(fmt.Sprintf("%s addr=%s", opName(op), c.addr))
			}
		}
		asp.End()
		if err == nil {
			c.put(conn)
			status := resp[0]
			if status != statusOK {
				return nil, decodeError(status, resp[1:])
			}
			return resp[1:], nil
		}
		conn.Close()
		lastErr = fmt.Errorf("remote %s: %s: %w", c.addr, opName(op), err)
		if mutating {
			// The request may have reached the worker: surface the
			// ambiguity instead of risking a double apply.
			break
		}
		if !fromPool {
			budget--
		}
	}
	return nil, lastErr
}

// exchange writes one request frame and reads one response frame under the
// per-call deadline.
func (c *Client) exchange(conn net.Conn, req []byte, mutating, light bool) ([]byte, error) {
	timeout := c.opts.Timeout
	if mutating {
		timeout = c.opts.MutateTimeout
	}
	if light {
		// Metadata answers from memory worker-side; bound it like a
		// dial, not like a query.
		timeout = c.opts.DialTimeout
	}
	//lovo:nondeterministic-ok transport deadline arithmetic; the wire payload never carries the clock value
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := writeFrame(conn, req, c.opts.MaxFrame); err != nil {
		return nil, err
	}
	resp, err := readFrame(conn, c.opts.MaxFrame)
	if err != nil {
		return nil, err
	}
	if len(resp) == 0 {
		return nil, fmt.Errorf("empty response frame")
	}
	return resp, nil
}

func opName(op byte) string {
	switch op {
	case opBuildIndex:
		return "build-index"
	case opFastSearchBatch:
		return "fast-search"
	case opGround:
		return "ground"
	case opSaveSnapshot:
		return "save-snapshot"
	case opLoadSnapshot:
		return "load-snapshot"
	case opIngestBatch:
		return "ingest-batch"
	case opPlanStats:
		return "plan-stats"
	case opStatus:
		return "status"
	}
	return fmt.Sprintf("op-%d", op)
}

// --- ShardBackend implementation ---------------------------------------

// Status fetches the worker's snapshot and stamps this client's address on
// it — on an error too, so an unreachable worker can still be named. It
// rides the hot serving path — the HTTP tier reads built, generation and
// health from it on every request — and the worker answers from memory, so
// it takes one attempt under a dial-scale deadline instead of the full
// read-retry budget: one blackholed worker costs a request one DialTimeout,
// not Retries x Timeout. Stale pooled connections still discard and redial
// for free.
func (c *Client) Status() (ShardStatus, error) {
	//lovo:ctx-ok sub-millisecond metadata exchange, deliberately untraced: a span per status poll would dwarf the traces it decorates
	resp, err := c.do(context.Background(), opStatus, nil, false, true)
	if err != nil {
		return ShardStatus{Addr: c.addr}, err
	}
	d := &dec{b: resp}
	st := readStatus(d)
	if err := d.finish(); err != nil {
		return ShardStatus{Addr: c.addr}, err
	}
	st.Addr = c.addr
	return st, nil
}

// ingestBatchBudget bounds one opIngestBatch frame's video payload. Chunks
// stay far under MaxFrame while still amortising the per-call dial and
// round trip across many videos.
const ingestBatchBudget = 8 << 20

// IngestVideos ships a slice of videos in order as size-bounded batch
// frames — one dial + round trip per ~8 MiB of corpus instead of per
// video; a live clip is a frame of one. Videos are gob-encoded inside the
// frame: the scene-description video model is structured, not a flat hit
// list, so it rides the standard library's codec. Each batch is
// at-most-once like every mutation; a transport failure surfaces with the
// batch unfinished rather than risking a double apply.
func (c *Client) IngestVideos(vs []*video.Video) error {
	e := &enc{}
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		body := make([]byte, 0, 4+len(e.b))
		head := &enc{b: body}
		head.u32(uint32(n))
		head.b = append(head.b, e.b...)
		_, err := c.call(opIngestBatch, head.b, true)
		e.b = e.b[:0]
		n = 0
		return err
	}
	for i := range vs {
		var vb bytes.Buffer
		if err := gob.NewEncoder(&vb).Encode(vs[i]); err != nil {
			return fmt.Errorf("remote %s: encoding video: %w", c.addr, err)
		}
		if n > 0 && len(e.b)+vb.Len() > ingestBatchBudget {
			if err := flush(); err != nil {
				return err
			}
		}
		e.bytes(vb.Bytes())
		n++
	}
	return flush()
}

// BuildIndex builds the worker's index.
func (c *Client) BuildIndex() error {
	_, err := c.call(opBuildIndex, nil, true)
	return err
}

// FastSearch runs stage 1 for one query: FastSearchBatch with a batch of
// one.
func (c *Client) FastSearch(ctx context.Context, text string, plan core.Plan) ([]core.ResultObject, error) {
	lists, err := c.FastSearchBatch(ctx, []string{text}, []core.Plan{plan})
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// stage1FrameBudget bounds the hits one opFastSearchBatch response can
// carry: a frame holds queries until their summed ShardK × encObjectSize
// would pass it (always at least one query), so no stage-1 response comes
// near MaxFrame however large the batch.
const stage1FrameBudget = 4 << 20

// FastSearchBatch runs stage 1 on the worker for every (text, plan) pair
// under the plans' leg knobs, as few opFastSearchBatch round trips as the
// frame budget allows — one for a lone query or any serving-sized batch.
// Under a traced context each request carries the trace id; the worker
// measures its own spans and ships them back after the hits, and this side
// grafts them under the current span — so the coordinator trace holds real
// worker-side stage-1 timings, not just client-observed RTT.
func (c *Client) FastSearchBatch(ctx context.Context, texts []string, plans []core.Plan) ([][]core.ResultObject, error) {
	if len(plans) != len(texts) {
		return nil, fmt.Errorf("remote %s: stage-1 batch of %d texts given %d plans", c.addr, len(texts), len(plans))
	}
	sp := obs.FromContext(ctx)
	tid := sp.TraceID()
	out := make([][]core.ResultObject, 0, len(texts))
	for lo := 0; lo < len(texts); {
		hi, cost := lo+1, stage1Cost(plans[lo])
		for hi < len(texts) && cost+stage1Cost(plans[hi]) <= stage1FrameBudget {
			cost += stage1Cost(plans[hi])
			hi++
		}
		e := &enc{}
		appendQueries(e, texts[lo:hi], plans[lo:hi])
		e.u64(tid)
		resp, err := c.callCtx(ctx, opFastSearchBatch, e.b)
		if err != nil {
			return nil, err
		}
		d := &dec{b: resp}
		lists := readHitLists(d)
		if tid != 0 {
			sp.Graft(readSpans(d))
		}
		if err := d.finish(); err != nil {
			return nil, err
		}
		if len(lists) != hi-lo {
			return nil, fmt.Errorf("remote %s: %d hit lists for %d queries", c.addr, len(lists), hi-lo)
		}
		out = append(out, lists...)
		lo = hi
	}
	return out, nil
}

// stage1Cost is the most response bytes one query's hits can take.
func stage1Cost(p core.Plan) int {
	k := p.ShardK
	if k <= 0 {
		k = p.FastK
	}
	return max(k, 0) * encObjectSize
}

// PlanStats fetches the worker's planning digest. It rides the retried
// read path (not Status's single-attempt path): the first fetch after a corpus
// change calibrates worker-side, and the sample payload is KB-scale.
func (c *Client) PlanStats() (core.PlanStats, error) {
	resp, err := c.call(opPlanStats, nil, false)
	if err != nil {
		return core.PlanStats{}, err
	}
	d := &dec{b: resp}
	st := readPlanStats(d)
	if err := d.finish(); err != nil {
		return core.PlanStats{}, err
	}
	return st, nil
}

// GroundCandidates runs stage 2 on the worker over the refs it owns.
// Trace propagation works as on FastSearchBatch: the id rides the request,
// the worker's spans ride the response.
func (c *Client) GroundCandidates(ctx context.Context, text string, refs []core.FrameRef, workers int) ([]core.Grounding, error) {
	sp := obs.FromContext(ctx)
	tid := sp.TraceID()
	e := &enc{}
	e.str(text)
	appendRefs(e, refs)
	e.i64(int64(workers))
	e.u64(tid)
	resp, err := c.callCtx(ctx, opGround, e.b)
	if err != nil {
		return nil, err
	}
	d := &dec{b: resp}
	gs := readGroundings(d)
	if tid != 0 {
		sp.Graft(readSpans(d))
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return gs, nil
}

// SaveSnapshot fetches one replica's serialised system state.
func (c *Client) SaveSnapshot() ([]byte, error) {
	resp, err := c.call(opSaveSnapshot, nil, false)
	if err != nil {
		return nil, err
	}
	d := &dec{b: resp}
	data := d.bytesv()
	if err := d.finish(); err != nil {
		return nil, err
	}
	// The snapshot aliases the response buffer; copy so callers own it.
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// LoadSnapshot restores a snapshot into the worker's (empty) replicas.
func (c *Client) LoadSnapshot(data []byte) error {
	e := &enc{}
	e.bytes(data)
	_, err := c.call(opLoadSnapshot, e.b, true)
	return err
}
