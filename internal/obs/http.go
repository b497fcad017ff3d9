package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// This file exposes a registry and timeline operationally: an http.Handler
// bundling /metrics (Prometheus text), /snapshot.json, /timeline.jsonl,
// /debug/vars (expvar), and /debug/pprof, and a Serve helper that binds
// them to an address for the -obs flag of drsim and drstorm.

// Handler returns a mux serving the observability endpoints. Either
// argument may be nil; the corresponding endpoints then serve empty
// documents rather than 404s, so dashboards stay stable across
// configurations.
func Handler(r *Registry, tl *Timeline) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/timeline.jsonl", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = tl.WriteJSONL(w)
	})
	mux.HandleFunc("/spans.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tl.Spans())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, `observability endpoints:
  /metrics        Prometheus text format
  /snapshot.json  JSON metrics snapshot
  /timeline.jsonl drtrace-compatible event timeline
  /spans.json     derived per-peer phase spans
  /debug/vars     expvar (includes memstats)
  /debug/pprof/   runtime profiles
`)
	})
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	// Addr is the bound address (host:port), useful when the caller
	// requested port 0.
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// observability endpoints until Close. It also publishes the registry
// under the "dr" expvar name so /debug/vars carries the same series.
func Serve(addr string, r *Registry, tl *Timeline) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	if r != nil {
		PublishExpvar("dr", r)
	}
	srv := &http.Server{Handler: Handler(r, tl)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{Addr: ln.Addr().String(), ln: ln, srv: srv}, nil
}

// Close stops the server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
