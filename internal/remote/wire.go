package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/vectordb"
)

// Wire format: every message — request or response — is one length-prefixed
// frame, a uint32 little-endian payload length followed by the payload.
//
//	request payload:  u8 op   | op-specific body
//	response payload: u8 status | body (statusOK) or error string (otherwise)
//
// One request is in flight per connection at a time; the client's connection
// pool provides concurrency. A frame longer than the configured maximum is
// rejected without allocating — the receiver answers with an error frame and
// closes the connection, so a corrupt or hostile length can neither panic
// the server nor drive an unbounded allocation.
//
// Op values are explicit and never reused: a retired value (1, 2, 4, 6-11,
// 15-19, 22) must keep answering "unknown op". A message whose layout
// changes takes a fresh value rather than reinterpreting an old one.
const (
	opBuildIndex   byte = 3
	opGround       byte = 5
	opSaveSnapshot byte = 12
	opLoadSnapshot byte = 13
	// opIngestBatch ships videos in one frame (a list of per-video gob
	// blobs) — the one ingest op: a live clip is a batch of one, and a
	// dataset slice amortises the per-call dial and round trip.
	opIngestBatch byte = 14
	// opStatus fetches the shard's ShardStatus snapshot — the one metadata
	// read: boot nonce, generation, built, entities, ingest stats,
	// per-replica health, segment breakdown and config summary, all
	// answered from memory worker-side. An empty body answers at once; a
	// body holding a since token (the Stamp a watcher last saw) is a long
	// poll, answered as soon as the shard's Stamp differs from it or after
	// Heartbeat. (22 was the same read without the token.)
	opStatus byte = 23
	// opFastSearchBatch is the one stage-1 op: a list of (text, plan)
	// pairs plus the trace id, answered by one hit list per query and then,
	// for a traced request, the worker.stage1 span forest. A lone query is
	// a list of one.
	opFastSearchBatch byte = 20
	// opPlanStats fetches the shard's planning digest (selectivity sample,
	// posting statistics, calibrated effort ladder) for the coordinator's
	// accuracy-bounded planner.
	opPlanStats byte = 21
)

// Heartbeat bounds how long a worker holds a watch whose shard has not
// changed: the watcher hears from a live worker at least this often, so a
// silent watch connection is a dead one once Heartbeat plus the client's
// DialTimeout have passed.
const Heartbeat = time.Second

const (
	statusOK byte = iota
	// statusErr carries an opaque error string.
	statusErr
	// statusNoTerms marks core.ErrNoRecognisedTerms — a request-level
	// error the coordinator must keep distinguishable (it maps to a client
	// error, and must never burn replica or backend health).
	statusNoTerms
	// statusDuplicate marks a duplicate-key ingest (vectordb.ErrDuplicate):
	// the serving tier maps it to 409 Conflict, so the sentinel must
	// survive the RPC boundary.
	statusDuplicate
)

// DefaultMaxFrame bounds one frame's payload. Snapshot segments are the
// largest messages; 256 MiB accommodates far beyond the bench corpora while
// still refusing pathological lengths outright.
const DefaultMaxFrame = 256 << 20

var errFrameTooBig = errors.New("remote: frame exceeds maximum size")

func writeFrame(w io.Writer, payload []byte, max uint32) error {
	if uint64(len(payload)) > uint64(max) {
		return fmt.Errorf("%w: %d > %d bytes", errFrameTooBig, len(payload), max)
	}
	n := uint32(len(payload))
	head := [4]byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. The up-front allocation is capped: a peer that
// declares a huge length but never sends the bytes pins at most
// frameReadChunk, because the buffer grows only as payload actually
// arrives — a declared length alone can never reserve frame-sized memory.
const frameReadChunk = 64 << 10

func readFrame(r io.Reader, max uint32) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := uint32(head[0]) | uint32(head[1])<<8 | uint32(head[2])<<16 | uint32(head[3])<<24
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d bytes", errFrameTooBig, n, max)
	}
	if n <= frameReadChunk {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("remote: truncated frame: %w", err)
		}
		return payload, nil
	}
	var buf bytes.Buffer
	buf.Grow(frameReadChunk)
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("remote: truncated frame: %w", err)
	}
	return buf.Bytes(), nil
}

// wireError is an error reconstructed from a response frame. Unwrap keeps
// sentinel semantics (core.ErrNoRecognisedTerms) intact across the RPC
// boundary without re-stringifying the sentinel's text into the message.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// decodeError rebuilds the application error carried by a non-OK response.
func decodeError(status byte, body []byte) error {
	msg := string(body)
	if msg == "" {
		msg = "remote: backend error"
	}
	switch status {
	case statusNoTerms:
		return &wireError{msg: msg, sentinel: core.ErrNoRecognisedTerms}
	case statusDuplicate:
		return &wireError{msg: msg, sentinel: vectordb.ErrDuplicate}
	}
	return &wireError{msg: msg}
}

// encodeError picks the wire status for an application error.
func encodeError(err error) (byte, []byte) {
	switch {
	case errors.Is(err, core.ErrNoRecognisedTerms):
		return statusNoTerms, []byte(err.Error())
	case errors.Is(err, vectordb.ErrDuplicate):
		// The serving tier only needs "this is a duplicate, answer 409".
		return statusDuplicate, []byte(err.Error())
	}
	return statusErr, []byte(err.Error())
}
