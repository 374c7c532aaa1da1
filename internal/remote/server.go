package remote

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/video"
)

// Server hosts one ShardBackend behind the wire protocol: an accept loop
// spawns one goroutine per connection, each serving one request at a time.
// cmd/lovoshard wraps a shard.Local in one; tests serve backends over
// net.Pipe connections with ServeConn directly.
type Server struct {
	backend ShardBackend
	// nonce identifies this server instance: opStatus stamps it on every
	// snapshot as BootID, so a coordinator can tell "same worker, transient
	// blip" from "worker restarted (empty) since I last spoke to it" — the
	// latter means the shard's corpus is gone and serving on would silently
	// drop its slice from every merge. A watch whose since token carries
	// another nonce is answered at once.
	nonce uint64
	// Logf, when set, receives per-connection error logs (log.Printf
	// signature). Silent otherwise — tests inject failures on purpose.
	Logf func(format string, args ...any)

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// NewServer constructs a server over backend.
func NewServer(backend ShardBackend) *Server {
	var nb [8]byte
	if _, err := crand.Read(nb[:]); err != nil {
		// A weak nonce only weakens restart detection, never correctness.
		nb = [8]byte{1}
	}
	nonce := binary.LittleEndian.Uint64(nb[:])
	if nonce == 0 {
		nonce = 1 // zero means "unknown" client-side
	}
	return &Server{backend: backend, nonce: nonce, conns: make(map[net.Conn]struct{})}
}

// idleTimeout bounds how long a connection may sit between requests — and
// how long a peer may dawdle delivering one request's bytes — before the
// server reclaims the goroutine and fd. The client's pool absorbs the
// churn: a reclaimed idle connection is discarded and redialed for free on
// its next use.
const idleTimeout = 5 * time.Minute

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Close terminates every connection the server is currently serving and
// refuses new ServeConn calls; it does not close any listener passed to
// Serve (the caller owns it).
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// ServeConn serves one connection until it errors or closes. Safe to call
// from many goroutines (one per connection).
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	for {
		// The request must arrive — whole — within the idle window; the
		// deadline clears while the backend works (ingest and index
		// builds legitimately run long) and re-arms for the response
		// write.
		//lovo:nondeterministic-ok transport deadline arithmetic; the wire payload never carries the clock value
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		payload, err := readFrame(conn, DefaultMaxFrame)
		if err != nil {
			// An oversized declared length is a protocol violation the
			// peer should hear about; answer once, then drop the
			// connection (the stream offset is unrecoverable).
			if errors.Is(err, errFrameTooBig) {
				st, body := encodeError(err)
				resp := append([]byte{st}, body...)
				_ = writeFrame(conn, resp, DefaultMaxFrame)
			} else if err != io.EOF {
				s.logf("remote: reading request: %v", err)
			}
			return
		}
		if len(payload) == 0 {
			st, body := encodeError(errors.New("remote: empty request frame"))
			_ = writeFrame(conn, append([]byte{st}, body...), DefaultMaxFrame)
			return
		}
		_ = conn.SetReadDeadline(time.Time{})
		status, body := s.handle(payload[0], payload[1:])
		//lovo:nondeterministic-ok transport deadline arithmetic; the wire payload never carries the clock value
		_ = conn.SetWriteDeadline(time.Now().Add(idleTimeout))
		if err := writeFrame(conn, append([]byte{status}, body...), DefaultMaxFrame); err != nil {
			s.logf("remote: writing response: %v", err)
			return
		}
		_ = conn.SetWriteDeadline(time.Time{})
	}
}

// workerTrace is the worker-side trace of one stage op. The zero value is
// the free disabled recorder for untraced requests.
type workerTrace struct {
	t    *obs.Trace
	root obs.Span
}

// traceRequest starts the worker-side trace for one stage op: with a zero
// trace id (untraced caller) it returns the free disabled recorder; a
// nonzero id starts a fresh worker trace under the coordinator's id whose
// spans ship back on the response for the coordinator to graft.
func traceRequest(tid uint64, rootName string) (context.Context, workerTrace) {
	if tid == 0 {
		//lovo:ctx-ok the RPC boundary is a context root: the coordinator's ctx ended at its client socket, and an untraced op needs only the free disabled recorder
		return context.Background(), workerTrace{}
	}
	t := obs.NewTrace(tid)
	root := t.Root(rootName)
	//lovo:ctx-ok the RPC boundary is a context root: the coordinator's trace rides the wire as tid and regrows here from a fresh Background
	return obs.With(context.Background(), root), workerTrace{t: t, root: root}
}

// End closes the worker's root span.
func (w workerTrace) End() { w.root.End() }

// appendTrace appends the request's worker-side spans to a stage-op
// response — only for traced requests, so untraced responses carry not a
// single extra byte and the client knows by the id it sent whether spans
// follow the answer payload.
func appendTrace(e *enc, w workerTrace) {
	if w.t == nil {
		return
	}
	appendSpans(e, w.t.Export())
}

// handle dispatches one decoded request. A panic anywhere in decode or in
// the backend converts to an error response — a malformed or hostile frame
// must never take the worker down.
func (s *Server) handle(op byte, body []byte) (status byte, resp []byte) {
	defer func() {
		if r := recover(); r != nil {
			status, resp = encodeError(fmt.Errorf("remote: request panicked: %v", r))
		}
	}()
	d := &dec{b: body}
	e := &enc{}
	switch op {
	case opIngestBatch:
		n := d.count(1)
		vs := make([]*video.Video, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			raw := d.bytesv()
			if d.err != nil {
				break
			}
			var v video.Video
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&v); err != nil {
				return encodeError(fmt.Errorf("remote: decoding video %d of %d: %w", i, n, err))
			}
			vs = append(vs, &v)
		}
		if err := d.finish(); err != nil {
			return encodeError(err)
		}
		if err := s.backend.IngestVideos(vs); err != nil {
			return encodeError(err)
		}

	case opBuildIndex:
		if err := d.finish(); err != nil {
			return encodeError(err)
		}
		if err := s.backend.BuildIndex(); err != nil {
			return encodeError(err)
		}

	case opFastSearchBatch:
		texts, plans := readQueries(d)
		tid := d.u64()
		if err := d.finish(); err != nil {
			return encodeError(err)
		}
		ctx, root := traceRequest(tid, "worker.stage1")
		lists, err := s.backend.FastSearchBatch(ctx, texts, plans)
		root.End()
		if err != nil {
			return encodeError(err)
		}
		appendHitLists(e, lists)
		appendTrace(e, root)

	case opGround:
		text := d.str()
		refs := readRefs(d)
		workers := d.intv()
		tid := d.u64()
		if err := d.finish(); err != nil {
			return encodeError(err)
		}
		ctx, root := traceRequest(tid, "worker.rerank")
		gs, err := s.backend.GroundCandidates(ctx, text, refs, workers)
		root.End()
		if err != nil {
			return encodeError(err)
		}
		appendGroundings(e, gs)
		appendTrace(e, root)

	case opStatus:
		since := readStatusRequest(d)
		if err := d.finish(); err != nil {
			return encodeError(err)
		}
		if since != nil {
			if since.BootID != s.nonce {
				// The watcher last heard from another server instance:
				// this one's stamp differs by its nonce alone.
				since = nil
			} else {
				// The backend reports no nonce of its own; this server
				// stamps it on the answer.
				local := *since
				local.BootID = 0
				since = &local
			}
		}
		st, err := s.backend.Status(since)
		if err != nil {
			return encodeError(err)
		}
		st.BootID = s.nonce
		appendStatus(e, st)

	case opSaveSnapshot:
		if err := d.finish(); err != nil {
			return encodeError(err)
		}
		data, err := s.backend.SaveSnapshot()
		if err != nil {
			return encodeError(err)
		}
		e.bytes(data)

	case opLoadSnapshot:
		data := d.bytesv()
		if err := d.finish(); err != nil {
			return encodeError(err)
		}
		if err := s.backend.LoadSnapshot(data); err != nil {
			return encodeError(err)
		}

	default:
		return encodeError(fmt.Errorf("remote: unknown op %d", op))
	}
	return statusOK, e.b
}
