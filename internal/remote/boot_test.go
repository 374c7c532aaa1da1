package remote_test

// Boot-path suite: a coordinator pointed at a dead worker must fail fast
// with a clear error naming the address — the regression that motivated
// this (lovod hanging at boot on an unreachable -shard-addrs host) is
// pinned with a genuinely closed TCP port. Config mismatches (different
// seed or index on a worker) must likewise refuse to boot.

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/vectordb"
)

// closedPort reserves a TCP port and closes it, so the address is
// guaranteed unreachable (connection refused, not a hang).
func closedPort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// serveLocal boots a real TCP worker for boot tests and returns its
// address.
func serveLocal(t *testing.T, cfg core.Config) string {
	t.Helper()
	backend, err := shard.NewLocal(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(backend)
	go srv.Serve(l)
	t.Cleanup(func() { l.Close(); srv.Close() })
	return l.Addr().String()
}

// TestConnectFailsFastOnClosedPort is the regression test for the boot
// hang: an unreachable worker address must error out within the dial
// timeout, naming the offending address.
func TestConnectFailsFastOnClosedPort(t *testing.T) {
	good := serveLocal(t, core.Config{Seed: 1})
	dead := closedPort(t)

	start := time.Now()
	_, err := remote.Connect([]string{good, dead}, remote.ClientOptions{
		DialTimeout: 2 * time.Second,
		Retries:     1,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Connect to a closed port must error")
	}
	if !strings.Contains(err.Error(), dead) {
		t.Fatalf("error must name the unreachable address %s: %v", dead, err)
	}
	// "Fail fast" means bounded by the dial timeout (plus retry), not a
	// TCP-stack hang: a refused connection errors in microseconds, so
	// even a generous bound catches a regression to hanging.
	if limit := 10 * time.Second; elapsed > limit {
		t.Fatalf("Connect took %v; must fail fast (< %v)", elapsed, limit)
	}
}

func TestConnectSucceedsAgainstLiveWorkers(t *testing.T) {
	cfg := core.Config{Seed: 3}
	addrs := []string{serveLocal(t, cfg), serveLocal(t, cfg)}
	clients, err := remote.Connect(addrs, remote.ClientOptions{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	if len(clients) != 2 {
		t.Fatalf("got %d clients, want 2", len(clients))
	}
	if err := remote.VerifyConfig(clients, remote.Summarize(cfg.Resolved(), 0)); err != nil {
		t.Fatalf("matching configs must verify: %v", err)
	}
}

// TestVerifyConfigRejectsMismatch: a worker booted with a different seed or
// index must be refused at boot, not discovered via silently-wrong answers.
func TestVerifyConfigRejectsMismatch(t *testing.T) {
	want := core.Config{Seed: 7, Index: vectordb.IndexIMI}
	cases := []core.Config{
		{Seed: 8, Index: vectordb.IndexIMI},                    // wrong seed
		{Seed: 7, Index: vectordb.IndexFlat},                   // wrong index
		{Seed: 7, Index: vectordb.IndexIMI, SegmentSize: 4096}, // segmented worker, batch coordinator
	}
	for _, workerCfg := range cases {
		addr := serveLocal(t, workerCfg)
		clients, err := remote.Connect([]string{addr}, remote.ClientOptions{DialTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		err = remote.VerifyConfig(clients, remote.Summarize(want.Resolved(), 0))
		for _, c := range clients {
			c.Close()
		}
		if err == nil {
			t.Fatalf("worker config %+v must be rejected against coordinator %+v", workerCfg, want)
		}
		if !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("error should say mismatch: %v", err)
		}
	}
}

// TestVerifyConfigRejectsSegmentSizeMismatch: two segmented fleets with
// different seal thresholds build differently-segmented approximate
// indexes, so the coordinator must refuse the worker at boot — and the
// error says which flag to line up.
func TestVerifyConfigRejectsSegmentSizeMismatch(t *testing.T) {
	want := core.Config{Seed: 7, Index: vectordb.IndexIMI, SegmentSize: 1024}
	addr := serveLocal(t, core.Config{Seed: 7, Index: vectordb.IndexIMI, SegmentSize: 512})
	clients, err := remote.Connect([]string{addr}, remote.ClientOptions{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	err = remote.VerifyConfig(clients, remote.Summarize(want.Resolved(), 0))
	if err == nil {
		t.Fatal("segment-size mismatch must be rejected")
	}
	if !strings.Contains(err.Error(), "-segment-size") {
		t.Fatalf("mismatch error should name -segment-size: %v", err)
	}
}

// TestConnectRejectsEmptyAddress catches the easy flag typo
// (-shard-addrs "a,,b").
func TestConnectRejectsEmptyAddress(t *testing.T) {
	if _, err := remote.Connect([]string{""}, remote.ClientOptions{}); err == nil {
		t.Fatal("empty address must error")
	}
}
