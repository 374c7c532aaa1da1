package remote_test

// The test harness runs the full remote path hermetically inside go test:
// each "worker" is a shard.Local served by a remote.Server over net.Pipe
// connections, and the coordinator's remote.Clients dial fresh pipes on
// demand. No sockets, no ports, no sleeps — and the transport is the real
// one, byte for byte: frames, codec, deadlines and retries all execute
// exactly as they would across hosts.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/shard"
)

// pipeHost is one in-memory worker: a backend behind a remote.Server whose
// connections are net.Pipe pairs. kill() refuses new dials and severs every
// live connection — the in-test equivalent of a worker process dying.
type pipeHost struct {
	srv *remote.Server
	// local is the worker's backing shard when the harness built it (nil
	// for hand-wrapped backends) — tests use it for worker-side drills.
	local *shard.Local

	mu    sync.Mutex
	conns []net.Conn
	down  bool
	// wrap, when set, wraps the client side of each new connection
	// (latency injection, mid-stream kills).
	wrap func(net.Conn) net.Conn
	// failDials makes the next n dials fail outright (dropped backend).
	failDials int
}

func newPipeHost(backend remote.ShardBackend) *pipeHost {
	return &pipeHost{srv: remote.NewServer(backend)}
}

// dial opens one client connection to the host, spawning a server loop for
// the other end of the pipe.
func (h *pipeHost) dial() (net.Conn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.down {
		return nil, errors.New("pipehost: connection refused (worker down)")
	}
	if h.failDials > 0 {
		h.failDials--
		return nil, errors.New("pipehost: injected dial failure")
	}
	c, s := net.Pipe()
	h.conns = append(h.conns, s)
	go h.srv.ServeConn(s)
	if h.wrap != nil {
		c = h.wrap(c)
	}
	return c, nil
}

// kill severs the worker: live connections close mid-whatever-they-were-
// doing and new dials are refused until revive.
func (h *pipeHost) kill() {
	h.mu.Lock()
	h.down = true
	conns := h.conns
	h.conns = nil
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (h *pipeHost) revive() {
	h.mu.Lock()
	h.down = false
	h.mu.Unlock()
}

// restart simulates the worker process being killed and rebooted: live
// connections die, and a NEW server instance (fresh boot nonce) comes up
// over a fresh backend — empty, exactly as a real lovoshard boots.
func (h *pipeHost) restart(backend remote.ShardBackend) {
	h.mu.Lock()
	h.srv = remote.NewServer(backend)
	if l, ok := backend.(*shard.Local); ok {
		h.local = l
	}
	conns := h.conns
	h.conns = nil
	h.down = false
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// remoteEngine builds an n-shard engine whose every backend is a
// remote.Client speaking the wire protocol to a shard.Local over pipes.
func remoteEngine(t *testing.T, n int, cfg core.Config, opts remote.ClientOptions) (*shard.Engine, []*pipeHost) {
	t.Helper()
	hosts := make([]*pipeHost, n)
	backends := make([]remote.ShardBackend, n)
	for i := range hosts {
		l, err := shard.NewLocal(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = newPipeHost(l)
		hosts[i].local = l
		o := opts
		o.Dial = hosts[i].dial
		if o.Timeout == 0 {
			o.Timeout = 30 * time.Second
		}
		backends[i] = remote.NewClient("pipe://"+string(rune('a'+i)), o)
	}
	eng, err := shard.NewWithBackends(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, hosts
}

// ingestAll feeds the dataset and builds the index on any engine-like
// ingest surface.
func ingestAll(t *testing.T, eng *shard.Engine, ds *datasets.Dataset) {
	t.Helper()
	if err := eng.IngestDataset(ds); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
}

// singleSystem builds the monolithic reference system over the dataset.
func singleSystem(t *testing.T, cfg core.Config, ds *datasets.Dataset) *core.System {
	t.Helper()
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Videos {
		if err := sys.Ingest(&ds.Videos[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return sys
}
