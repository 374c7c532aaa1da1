package remote_test

// Transport hardening: the server must reject oversized and truncated
// frames, garbage op codes and corrupt payloads with an error — never a
// panic, never a hang — and the client's bounded retries plus worker-side
// replica failover must make dropped, delayed and mid-stream-killed
// connections invisible to answers.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/shard"
)

// rawExchange writes raw bytes to a fresh server connection and reads one
// response frame (or the connection closing).
func rawExchange(t *testing.T, h *pipeHost, raw []byte) ([]byte, error) {
	t.Helper()
	conn, err := h.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		return nil, err
	}
	var head [4]byte
	if _, err := io.ReadFull(conn, head[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(head[:])
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

func bootLocal(t *testing.T) *shard.Local {
	t.Helper()
	l, err := shard.NewLocal(1, core.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestServerRejectsOversizedFrame: a declared length beyond the maximum
// must answer with an error frame and close — without allocating the
// claimed size or panicking.
func TestServerRejectsOversizedFrame(t *testing.T) {
	h := newPipeHost(bootLocal(t))
	h.srv.MaxFrame = 1 << 16

	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], 1<<30) // 1 GiB claim
	payload, err := rawExchange(t, h, head[:])
	if err != nil {
		t.Fatalf("oversized frame should get an error response, got transport error %v", err)
	}
	if len(payload) == 0 || payload[0] == 0 {
		t.Fatalf("oversized frame must answer a non-OK status, got % x", payload)
	}
	if !strings.Contains(string(payload[1:]), "exceeds maximum") {
		t.Fatalf("error should name the violation, got %q", payload[1:])
	}
	// The server must still serve fresh connections afterwards.
	if err := pingHost(t, h); err != nil {
		t.Fatalf("server dead after oversized frame: %v", err)
	}
}

// TestServerSurvivesTruncatedFrame: a connection that dies mid-frame must
// not take the server down or wedge other connections.
func TestServerSurvivesTruncatedFrame(t *testing.T) {
	h := newPipeHost(bootLocal(t))
	conn, err := h.dial()
	if err != nil {
		t.Fatal(err)
	}
	// Declare 100 bytes, send 3, hang up.
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], 100)
	conn.SetDeadline(time.Now().Add(time.Second))
	conn.Write(head[:])
	conn.Write([]byte{1, 2, 3})
	conn.Close()

	if err := pingHost(t, h); err != nil {
		t.Fatalf("server dead after truncated frame: %v", err)
	}
}

// TestServerRejectsMalformedPayloads: garbage op codes, empty frames and
// corrupt message bodies all answer an error status; none panic the worker.
func TestServerRejectsMalformedPayloads(t *testing.T) {
	h := newPipeHost(bootLocal(t))
	cases := map[string][]byte{
		"unknown op":               {0xEE, 1, 2, 3},
		"fast-search no body":      {18}, // opFastSearchBatch with an empty body
		"fast-search forged count": {18, 0xFF, 0xFF, 0xFF, 0xFF},
		"ground corrupt count":     append([]byte{5, 0, 0, 0, 0}, 0xFF, 0xFF, 0xFF, 0xFF),
		"ingest garbage gob":       {14, 1, 0, 0, 0, 4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef},
	}
	for name, payload := range cases {
		resp, err := rawExchange(t, newPipeHost(bootLocal(t)), frame(payload))
		if err != nil {
			t.Fatalf("%s: want an error response, got transport error %v", name, err)
		}
		if len(resp) == 0 || resp[0] == 0 {
			t.Fatalf("%s: malformed request must answer a non-OK status, got % x", name, resp)
		}
	}
	// Retired op bytes — the per-field metadata reads Status replaced, the
	// lone-query and lone-video ops the batch ops replaced, and the plan
	// digest layout that lacked each rung's int8 bit — are unknown ops now,
	// with or without a body, never a dispatch.
	for _, op := range []byte{1, 2, 4, 6, 7, 8, 9, 10, 11, 15, 16} {
		for _, payload := range [][]byte{{op}, {op, 0xFF, 0xFF, 0xFF, 0xFF}} {
			resp, err := rawExchange(t, h, frame(payload))
			if err != nil {
				t.Fatalf("retired op %d: want an error response, got transport error %v", op, err)
			}
			if len(resp) == 0 || resp[0] == 0 || !strings.Contains(string(resp[1:]), "unknown op") {
				t.Fatalf("retired op %d must answer unknown op, got % x %q", op, resp[:1], resp[1:])
			}
		}
	}
	// Empty frame: answered with an error, then the connection closes.
	resp, err := rawExchange(t, h, frame(nil))
	if err != nil {
		t.Fatalf("empty frame: %v", err)
	}
	if len(resp) == 0 || resp[0] == 0 {
		t.Fatal("empty frame must answer a non-OK status")
	}
}

func pingHost(t *testing.T, h *pipeHost) error {
	t.Helper()
	c := remote.NewClient("pipe://ping", remote.ClientOptions{Dial: h.dial, Timeout: 2 * time.Second})
	defer c.Close()
	_, err := c.Status()
	return err
}

// TestClientRejectsOversizedResponse pins the symmetric bound: a server
// (or attacker) declaring a giant response frame errors client-side
// instead of allocating it.
func TestClientRejectsOversizedResponse(t *testing.T) {
	// A fake "server" that answers any frame with a 1 GiB length claim.
	dial := func() (net.Conn, error) {
		c, s := net.Pipe()
		go func() {
			defer s.Close()
			if _, err := readFrameRaw(s); err != nil {
				return
			}
			var head [4]byte
			binary.LittleEndian.PutUint32(head[:], 1<<30)
			s.Write(head[:])
		}()
		return c, nil
	}
	c := remote.NewClient("pipe://bigmouth", remote.ClientOptions{Dial: dial, Timeout: time.Second, Retries: 1})
	defer c.Close()
	_, err := c.Status()
	if err == nil {
		t.Fatal("oversized response must error")
	}
	if !strings.Contains(err.Error(), "exceeds maximum") {
		t.Fatalf("error should name the violation: %v", err)
	}
}

func readFrameRaw(conn net.Conn) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(conn, head[:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(head[:]))
	_, err := io.ReadFull(conn, payload)
	return payload, err
}

// TestNoRecognisedTermsCrossesTheWire: the request-level sentinel must stay
// errors.Is-able through the RPC boundary — the serving tier maps it to a
// 400 and replica routing must not burn health on it.
func TestNoRecognisedTermsCrossesTheWire(t *testing.T) {
	ds := datasets.Bellevue(datasets.Config{Seed: 1, Scale: 0.05})
	eng, _ := remoteEngine(t, 2, 1, core.Config{Seed: 1}, remote.ClientOptions{})
	ingestAll(t, eng, ds)
	_, err := core.Query(context.Background(), eng, "zorgon blaxt", core.QueryOptions{})
	if !errors.Is(err, core.ErrNoRecognisedTerms) {
		t.Fatalf("sentinel lost over RPC: %v", err)
	}
	for gi, g := range eng.Status().ReplicaGroups {
		for ri, st := range g {
			if !st.Healthy {
				t.Fatalf("replica (%d,%d) burned health on a client error", gi, ri)
			}
		}
	}
}

// --- fault injection: dropped, delayed, mid-stream-killed ---------------

// latencyConn delays every write by d — a slow network, not a broken one.
type latencyConn struct {
	net.Conn
	d time.Duration
}

func (c *latencyConn) Write(p []byte) (int, error) {
	time.Sleep(c.d)
	return c.Conn.Write(p)
}

// killAfterConn closes the connection after budget bytes have been read
// from it — the peer dies mid-response.
type killAfterConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (c *killAfterConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	b := c.budget
	c.mu.Unlock()
	if b <= 0 {
		c.Close()
		return 0, errors.New("killAfterConn: injected mid-stream kill")
	}
	if len(p) > b {
		p = p[:b]
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.budget -= n
	c.mu.Unlock()
	return n, err
}

// TestFaultInjectionNeverChangesAnswers runs the same query battery under
// three injected faults — dropped dials, injected latency, connections
// killed mid-response — and requires every answer byte-identical to the
// healthy run. Failover (client retries + redials) must be invisible.
func TestFaultInjectionNeverChangesAnswers(t *testing.T) {
	const seed = 13
	cfg := core.Config{Seed: seed}
	ds := datasets.QVHighlights(datasets.Config{Seed: seed, Scale: 0.04})
	eng, hosts := remoteEngine(t, 3, 1, cfg, remote.ClientOptions{
		Timeout: 5 * time.Second,
		Retries: 3,
	})
	ingestAll(t, eng, ds)

	queries := ds.Queries
	if testing.Short() {
		queries = queries[:3]
	}
	want := make([]*core.Result, len(queries))
	for i, q := range queries {
		res, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	check := func(t *testing.T) {
		for i, q := range queries {
			got, err := core.Query(context.Background(), eng, q.Text, core.QueryOptions{})
			if err != nil {
				t.Fatalf("%s under fault: %v", q.ID, err)
			}
			if !reflect.DeepEqual(got.Objects, want[i].Objects) {
				t.Fatalf("%s: fault changed the answer", q.ID)
			}
		}
	}

	t.Run("dropped dials", func(t *testing.T) {
		// Sever every pooled connection so queries must redial, and fail
		// the next dial of every host; the bounded retry budget covers
		// both the stale pool hit and the dropped dial.
		for _, h := range hosts {
			h.kill()
			h.revive()
			h.mu.Lock()
			h.failDials = 1
			h.mu.Unlock()
		}
		check(t)
	})

	t.Run("latency injected", func(t *testing.T) {
		for _, h := range hosts {
			h.mu.Lock()
			h.wrap = func(c net.Conn) net.Conn { return &latencyConn{Conn: c, d: 2 * time.Millisecond} }
			h.mu.Unlock()
		}
		defer func() {
			for _, h := range hosts {
				h.mu.Lock()
				h.wrap = nil
				h.mu.Unlock()
			}
		}()
		check(t)
	})

	t.Run("mid-stream kill", func(t *testing.T) {
		// Sever pooled connections, then make the first fresh connection
		// to every host die after 8 response bytes — mid-frame. The
		// retry's second connection is healthy.
		for _, h := range hosts {
			h.kill()
			h.revive()
			h.mu.Lock()
			first := true
			h.wrap = func(c net.Conn) net.Conn {
				if first {
					first = false
					return &killAfterConn{Conn: c, budget: 8}
				}
				return c
			}
			h.mu.Unlock()
		}
		defer func() {
			for _, h := range hosts {
				h.mu.Lock()
				h.wrap = nil
				h.mu.Unlock()
			}
		}()
		check(t)
	})

	t.Run("worker killed entirely fails cleanly", func(t *testing.T) {
		hosts[1].kill()
		defer hosts[1].revive()
		_, err := core.Query(context.Background(), eng, queries[0].Text, core.QueryOptions{})
		if err == nil {
			t.Fatal("query with a dead shard must error, not return a partial merge")
		}
		// The engine's health probe sees it too.
		stats := eng.Status().Backends
		if stats[1].Healthy {
			t.Fatal("dead worker must report unhealthy")
		}
		if stats[0].Kind != "remote" || stats[0].Addr == "" {
			t.Fatalf("backend stat should name the remote worker: %+v", stats[0])
		}
	})

	t.Run("revived worker serves identical answers", func(t *testing.T) {
		check(t)
	})
}
