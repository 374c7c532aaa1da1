package remote

import (
	"fmt"
	"strings"
)

// Connect builds one client per worker address and health-checks each with
// an eager Status read, so a coordinator fails fast at boot — with the offending
// address named in the error — instead of hanging until the first query
// discovers a dead worker. On any failure every already-opened client is
// closed before returning.
func Connect(addrs []string, opts ClientOptions) ([]*Client, error) {
	clients := make([]*Client, 0, len(addrs))
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for i, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			closeAll()
			return nil, fmt.Errorf("remote: shard address %d is empty", i)
		}
		c := NewClient(addr, opts)
		if _, err := c.Status(nil); err != nil {
			c.Close()
			closeAll()
			return nil, fmt.Errorf("remote: shard %d (%s) unreachable: %w", i, addr, err)
		}
		clients = append(clients, c)
	}
	return clients, nil
}

// VerifyConfig checks every worker's resolved configuration against the
// coordinator's: seeded encoders mean a worker booted with a different seed
// (or index, or merge parameters) would silently answer from a different
// embedding space, so a mismatch is a boot error, not a runtime surprise.
func VerifyConfig(clients []*Client, want ConfigSummary) error {
	for i, c := range clients {
		st, err := c.Status(nil)
		if err != nil {
			return fmt.Errorf("remote: shard %d (%s): fetching config: %w", i, c.Addr(), err)
		}
		if got := st.Config; !got.Compatible(want) {
			return fmt.Errorf(
				"remote: shard %d (%s) config mismatch: worker %+v, coordinator %+v (boot workers and coordinator with the same -seed/-index/-segment-size)",
				i, c.Addr(), got, want)
		}
	}
	return nil
}
