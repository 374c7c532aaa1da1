package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerIsBounded: both listeners serve through newHTTPServer, whose
// server bounds header, body and idle time and leaves writes unbounded.
func TestHTTPServerIsBounded(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("server does not carry its address and handler: %+v", srv)
	}
	for _, tc := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, 10 * time.Second},
		{"ReadTimeout", srv.ReadTimeout, 5 * time.Minute},
		{"IdleTimeout", srv.IdleTimeout, 2 * time.Minute},
		{"WriteTimeout", srv.WriteTimeout, 0},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}
