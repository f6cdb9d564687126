// Package obsv is the operational side door of the Zmail daemons: a
// small admin HTTP listener serving the pull-based telemetry surface.
//
//	/metrics       Prometheus text exposition (Registry.Gather + WriteProm)
//	/healthz       liveness: 200 "ok" or 503 with the failure
//	/tracez        the most recent spans from the trace ring (?n= limits)
//	/debug/pprof/  the standard Go profiling handlers
//
// plus any plain-text pages the daemon adds (Config.Pages), such as an
// ISP's ledger views. The listener is meant for a loopback or otherwise
// private address: it exposes profiling endpoints and ledgers and is
// unauthenticated by design.
package obsv

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"zmail/internal/metrics"
	"zmail/internal/trace"
)

// Config wires the admin listener to the daemon's telemetry state. Any
// field may be nil; the corresponding endpoint degrades gracefully
// (empty exposition, always-healthy, empty trace list).
type Config struct {
	// Registry is gathered and rendered by /metrics.
	Registry *metrics.Registry
	// Ring supplies /tracez with the most recent spans.
	Ring *trace.Ring
	// Health is consulted by /healthz; nil means always healthy.
	Health func() error
	// Pages are extra plain-text views keyed by path, e.g. "/users";
	// each is served with a text/plain Content-Type.
	Pages map[string]http.HandlerFunc
	// Addr is the listener's actually-bound address, reported by
	// /healthz as an `addr=` line so harnesses that asked for an
	// ephemeral port (":0") can confirm what they reached without
	// re-parsing the daemon's boot log. Start fills it in; callers
	// driving Handler directly may set it by hand.
	Addr string
}

// Handler builds the admin mux for cfg. Exposed separately from Start
// so tests can drive it through net/http/httptest.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.Registry == nil {
			return
		}
		cfg.Registry.Gather()
		if err := cfg.Registry.WriteProm(w); err != nil {
			// The connection died mid-scrape; nothing to clean up.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ok")
		if cfg.Addr != "" {
			fmt.Fprintf(w, "addr=%s\n", cfg.Addr)
		}
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Ring == nil {
			return
		}
		n := 100
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		spans := cfg.Ring.Recent(n)
		fmt.Fprintf(w, "# %d spans retained of %d recorded\n", len(spans), cfg.Ring.Total())
		for _, s := range spans {
			fmt.Fprintln(w, s.String())
		}
	})
	for path, page := range cfg.Pages {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			page(w, r)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running admin listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start binds addr (e.g. "127.0.0.1:7070", or ":0" for an ephemeral
// port) and serves the admin endpoints until Close. An empty addr
// serves nothing: the nil *Server it returns has a nil Addr and a no-op
// Close.
func Start(addr string, cfg Config) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obsv: listen %s: %w", addr, err)
	}
	cfg.Addr = ln.Addr().String()
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(cfg)}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address, or nil for a nil Server.
func (s *Server) Addr() net.Addr {
	if s == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
