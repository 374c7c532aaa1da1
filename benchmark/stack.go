package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vectordb"
)

// stack is the system under test, assembled in-process from the constructors
// cmd/lovod and cmd/lovoshard use, on real loopback TCP sockets: the HTTP
// serving tier over a coordinator engine over two shards, each shard either
// in-process or behind a remote worker.
type stack struct {
	cfg core.Config
	eng *shard.Engine
	// locals are the replica groups that hold the shards' systems: the
	// engine's own backends in-process, the workers' backends when remote.
	// The traced pass calls their systems directly.
	locals  []*shard.Local
	workers []*worker
	wire    *wireCounter

	url     string
	httpSrv *http.Server
	// client carries the load: one keep-alive connection per client
	// goroutine, never more than maxClients. control carries the handful of
	// /healthz and /stats reads around the window on a connection of its
	// own, so they never queue behind the load.
	client, control *http.Client
	serving         sync.WaitGroup
}

// worker is one in-process lovoshard: a remote.Server on a loopback listener.
type worker struct {
	srv  *remote.Server
	ln   net.Listener
	done chan struct{}
}

// setupTimes is what one set-up round measured.
type setupTimes struct {
	setup, ingest, build time.Duration
}

// systemConfig is the core.Config every system of a run shares.
func systemConfig(w Workload, seed uint64) core.Config {
	cfg := core.Config{Seed: mix(seed, streamSystem, 0), Index: vectordb.IndexIMI, Streaming: w.Streaming}
	if w.Streaming {
		cfg.SegmentSize = liveSegmentSize
	}
	return cfg
}

// heapInuse is the heap in use after a full collection.
func heapInuse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// bootStack assembles the topology, ingests the corpus, builds the index and
// brings the HTTP tier up. The set-up clock starts at the first Ingest call
// and stops when /healthz answers ok.
func bootStack(ctx context.Context, w Workload, seed uint64, corpus *Corpus) (*stack, setupTimes, error) {
	st := &stack{cfg: systemConfig(w, seed), wire: &wireCounter{}}
	var times setupTimes
	if err := st.assemble(w); err != nil {
		st.close(ctx)
		return nil, times, err
	}
	start := time.Now()
	if err := st.eng.IngestDataset(&corpus.Data); err != nil {
		st.close(ctx)
		return nil, times, fmt.Errorf("ingest: %w", err)
	}
	times.ingest = time.Since(start)
	buildStart := time.Now()
	if err := st.eng.BuildIndex(); err != nil {
		st.close(ctx)
		return nil, times, fmt.Errorf("build index: %w", err)
	}
	times.build = time.Since(buildStart)
	if err := st.serve(ctx); err != nil {
		st.close(ctx)
		return nil, times, err
	}
	times.setup = time.Since(start)
	return st, times, nil
}

// assemble builds the engine: in-process shards, or one remote worker per
// shard dialed and config-verified the way cmd/lovod does.
func (st *stack) assemble(w Workload) error {
	if !w.Remote {
		eng, err := shard.NewReplicated(shards, 1, st.cfg)
		if err != nil {
			return err
		}
		st.eng = eng
		for i := 0; i < shards; i++ {
			st.locals = append(st.locals, eng.Backend(i).(*shard.Local))
		}
		return nil
	}
	addrs := make([]string, shards)
	for i := range addrs {
		local, err := shard.NewLocal(1, st.cfg)
		if err != nil {
			return err
		}
		wk, err := startWorker(local, st.wire)
		if err != nil {
			return err
		}
		st.locals = append(st.locals, local)
		st.workers = append(st.workers, wk)
		addrs[i] = wk.ln.Addr().String()
	}
	clients, err := remote.Connect(addrs, remote.ClientOptions{})
	if err != nil {
		return err
	}
	backends := make([]remote.ShardBackend, len(clients))
	for i, c := range clients {
		backends[i] = c
	}
	// The engine owns the clients from here on: close() closes them
	// through it, also when verification fails.
	st.eng, err = shard.NewWithBackends(backends, st.cfg)
	if err != nil {
		return err
	}
	return remote.VerifyConfig(clients, remote.Summarize(st.cfg.Resolved(), 0))
}

// startWorker serves a shard over the RPC protocol on a loopback socket whose
// traffic is counted (wire may be nil).
func startWorker(local *shard.Local, wire *wireCounter) (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wk := &worker{srv: remote.NewServer(local), ln: ln, done: make(chan struct{})}
	var l net.Listener = ln
	if wire != nil {
		l = countingListener{Listener: ln, wire: wire}
	}
	go func() {
		defer close(wk.done)
		// Serve returns nil once the listener closes; any other error
		// surfaces as failed RPCs, which the run reports.
		_ = wk.srv.Serve(l)
	}()
	return wk, nil
}

func (wk *worker) stop() {
	wk.ln.Close()
	wk.srv.Close()
	<-wk.done
}

// serve starts the HTTP tier the way cmd/lovod does and waits for /healthz.
func (st *stack) serve(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.url = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: server.New(st.eng, server.Config{CacheSize: cacheSize, Shards: st.eng.Shards()})}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		// ErrServerClosed after Shutdown; anything else shows up as
		// failed requests.
		_ = st.httpSrv.Serve(ln)
	}()
	st.control = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{}}
	st.client = &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        maxClients,
			MaxIdleConnsPerHost: maxClients,
			MaxConnsPerHost:     maxClients,
		},
	}
	body, status, err := st.get(ctx, "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if status != http.StatusOK || !isHealthy(body) {
		return fmt.Errorf("healthz: status %d body %s", status, body)
	}
	return nil
}

// close tears the stack down and waits for every goroutine it started.
func (st *stack) close(ctx context.Context) {
	if st.httpSrv != nil {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if err := st.httpSrv.Shutdown(sctx); err != nil {
			st.httpSrv.Close()
		}
		cancel()
		st.serving.Wait()
		st.client.CloseIdleConnections()
		st.control.CloseIdleConnections()
	}
	if st.eng != nil {
		st.eng.Close()
	}
	for _, wk := range st.workers {
		wk.stop()
	}
}

// system returns shard i's core.System.
func (st *stack) system(i int) *core.System { return st.locals[i].System(0) }

// waitMaintenance blocks until every streaming shard's background seals and
// compactions have finished.
func (st *stack) waitMaintenance() error {
	for i := range st.locals {
		if seg := st.system(i).Segmented(); seg != nil {
			if err := seg.WaitMaintenance(); err != nil {
				return fmt.Errorf("shard %d maintenance: %w", i, err)
			}
		}
	}
	return nil
}

// post sends one JSON request and reads the whole response body.
func (st *stack) post(ctx context.Context, path string, body io.Reader) ([]byte, int, error) {
	return st.do(ctx, st.client, http.MethodPost, path, body)
}

// get reads a control endpoint.
func (st *stack) get(ctx context.Context, path string) ([]byte, int, error) {
	return st.do(ctx, st.control, http.MethodGet, path, nil)
}

func (st *stack) do(ctx context.Context, client *http.Client, method, path string, body io.Reader) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, st.url+path, body)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// wireCounter counts what crosses the worker sockets, seen from the workers.
type wireCounter struct {
	bytes atomic.Int64
	rpcs  atomic.Int64
}

type countingListener struct {
	net.Listener
	wire *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, wire: l.wire, replied: true}, nil
}

// countingConn counts bytes both ways and one RPC per request: the protocol
// is strictly request/response per connection, so the first bytes read after
// a reply (or after accept) begin a new request. Each connection is served by
// one goroutine, so the flag needs no lock.
type countingConn struct {
	net.Conn
	wire    *wireCounter
	replied bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.wire.bytes.Add(int64(n))
		if c.replied {
			c.replied = false
			c.wire.rpcs.Add(1)
		}
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wire.bytes.Add(int64(n))
	c.replied = true
	return n, err
}

// isHealthy reports whether a /healthz body says the serving tier is up with
// its index built and every backend reachable.
func isHealthy(body []byte) bool {
	var h struct {
		Status string `json:"status"`
		Built  bool   `json:"built"`
	}
	return json.Unmarshal(body, &h) == nil && h.Status == "ok" && h.Built
}
