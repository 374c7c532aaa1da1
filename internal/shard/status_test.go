package shard

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/remote"
)

// scriptedBackend answers Status from a script; the engine calls nothing
// else on it here.
type scriptedBackend struct {
	remote.ShardBackend
	st  remote.ShardStatus
	err error
}

func (b *scriptedBackend) Status(*remote.Stamp) (remote.ShardStatus, error) { return b.st, b.err }

func up(bootID, gen uint64) remote.ShardStatus {
	return remote.ShardStatus{
		BootID: bootID, Addr: "worker:1", Gen: gen, Built: true, Entities: 10,
		Replicas: []ReplicaStat{{Healthy: true}},
	}
}

// TestObserveFoldsEveryStatusRead pins observe's rules one at a time on a
// scripted backend: the generation record is monotonic and held while the
// shard is unreachable, and each restart detector fires on its own — a
// generation that regresses to zero behind an unchanged nonce, and a nonce
// that changes behind a nonzero generation.
func TestObserveFoldsEveryStatusRead(t *testing.T) {
	newEngine := func() (*Engine, *scriptedBackend) {
		b := &scriptedBackend{st: up(7, 3)}
		e, err := NewWithBackends([]remote.ShardBackend{b}, core.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st := e.Status(); !st.Built || st.Gen != 3 || !st.Backends[0].Healthy || st.Backends[0].Kind != "remote" {
			t.Fatalf("healthy baseline: %+v", st)
		}
		return e, b
	}

	t.Run("unreachable holds the generation", func(t *testing.T) {
		e, b := newEngine()
		b.st, b.err = remote.ShardStatus{Addr: "worker:1"}, errors.New("connection refused")
		st := e.Status()
		if st.Gen != 3 || st.Built || st.Entities != 0 {
			t.Fatalf("down shard must hold gen 3, unbuilt, contributing nothing: %+v", st)
		}
		if bs := st.Backends[0]; bs.Healthy || bs.Addr != "worker:1" || bs.Error != "connection refused" {
			t.Fatalf("down shard must be named with its error: %+v", bs)
		}
		if g := st.ReplicaGroups[0]; len(g) != 1 || g[0].Healthy {
			t.Fatalf("down shard reports one unhealthy placeholder replica, got %+v", g)
		}
		b.st, b.err = up(7, 5), nil
		if st := e.Status(); !st.Built || st.Gen != 5 || !st.Backends[0].Healthy {
			t.Fatalf("a blip leaves no residue: %+v", st)
		}
	})

	t.Run("stale read never lowers the record", func(t *testing.T) {
		e, b := newEngine()
		b.st = up(7, 2)
		e.Status()
		b.err = errors.New("down")
		if st := e.Status(); st.Gen != 3 {
			t.Fatalf("held generation = %d, want the highest seen (3)", st.Gen)
		}
	})

	t.Run("generation regression alone", func(t *testing.T) {
		e, b := newEngine()
		b.st = up(7, 0)
		st := e.Status()
		if st.Built || st.Backends[0].Healthy || !strings.Contains(st.Backends[0].Error, "state lost") {
			t.Fatalf("gen 0 after progress must mark state lost: %+v", st)
		}
		b.st = up(7, 9)
		if st := e.Status(); st.Built || st.Backends[0].Healthy {
			t.Fatalf("state lost must stick until a restore: %+v", st)
		}
	})

	t.Run("nonce change alone", func(t *testing.T) {
		e, b := newEngine()
		b.st = up(8, 3)
		if st := e.Status(); st.Built || !strings.Contains(st.Backends[0].Error, "state lost") {
			t.Fatalf("new nonce behind recorded progress must mark state lost: %+v", st)
		}
	})

	t.Run("no healthy replica", func(t *testing.T) {
		e, b := newEngine()
		b.st.Replicas = []ReplicaStat{{Healthy: false}, {Healthy: false}}
		st := e.Status()
		if bs := st.Backends[0]; bs.Healthy || bs.Error != ErrAllReplicasDown.Error() {
			t.Fatalf("a group with every replica down is unhealthy: %+v", bs)
		}
		if !st.Built {
			t.Fatal("replica health is a routing state, not an index state")
		}
	})
}
