package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// exposition serves a registry (and optionally a flight recorder and op
// log) over HTTP:
//
//	/metrics          Prometheus text exposition
//	/healthz          JSON liveness (status, uptime, metric families)
//	/debug/events     the flight recorder's retained events as JSON
//	/debug/ops.jsonl  the op log's wall-clock wire spans as JSONL
//	/debug/pprof/     the standard Go profiler endpoints
type exposition struct {
	reg    *Registry
	flight *FlightRecorder
	ops    *OpLog
	start  time.Time
}

// HandlerOpts selects what HandlerWith exposes. Registry is required; every
// other sink is optional and its route 404s when absent.
type HandlerOpts struct {
	Registry *Registry
	Flight   *FlightRecorder
	Ops      *OpLog
}

// HandlerWith returns an http.Handler exposing the registry's /metrics, a
// /healthz liveness probe, /debug/pprof/ and the optional
// distributed-observability sinks: the flight recorder at /debug/events and
// the server-side op spans at /debug/ops.jsonl. Daemons embedding their own
// http.Server mount this next to their API routes; StartServer wraps it for
// standalone use.
func HandlerWith(opts HandlerOpts) http.Handler {
	e := &exposition{
		reg:    opts.Registry,
		flight: opts.Flight,
		ops:    opts.Ops,
		start:  time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", e.handleMetrics)
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/debug/events", e.handleEvents)
	mux.HandleFunc("/debug/ops.jsonl", e.handleOps)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server exposes a registry over HTTP in a background goroutine for live
// inspection of long experiment runs. See HandlerWith for the routes.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	closed atomic.Bool
}

// closeTimeout bounds the graceful drain a Close attempts before falling
// back to hard-closing open connections.
const closeTimeout = 3 * time.Second

// StartServer listens on addr (":0" picks a free port) and serves the
// registry's /metrics, /healthz and /debug/pprof/ in a background goroutine
// until Close.
func StartServer(addr string, reg *Registry) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("telemetry: nil registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln}
	// ReadHeaderTimeout caps how long a client may dribble request headers
	// (slowloris); no WriteTimeout because /debug/pprof/profile
	// legitimately streams for a long time.
	s.srv = &http.Server{
		Handler:           HandlerWith(HandlerOpts{Registry: reg}),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains in-flight requests for up to closeTimeout, then hard-closes
// whatever remains. Safe to call more than once.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

func (e *exposition) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := e.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (e *exposition) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type health struct {
		Status   string  `json:"status"`
		UptimeS  float64 `json:"uptime_s"`
		Families int     `json:"metric_families"`
	}
	h := health{Status: "ok", UptimeS: time.Since(e.start).Seconds()}
	e.reg.mu.RLock()
	h.Families = len(e.reg.families)
	e.reg.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h) //nolint:errcheck // best-effort liveness
}

// limitN parses the optional ?n= query parameter shared by the ring-dump
// endpoints: the maximum number of newest entries to return. Absent means
// everything (-1); a malformed or negative value writes a 400 and reports
// not-ok.
func limitN(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("n")
	if raw == "" {
		return -1, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		http.Error(w, fmt.Sprintf("bad n %q: want a non-negative integer", raw),
			http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

// handleEvents serves the flight recorder's retained events as one JSON
// document, newest last — the post-mortem a soak harness scrapes after a
// run, and what SIGQUIT dumps to stderr. ?n= trims the dump to the n newest
// events; retained still reports the full ring so a trimmed read is
// distinguishable from a short ring.
func (e *exposition) handleEvents(w http.ResponseWriter, r *http.Request) {
	if e.flight == nil {
		http.NotFound(w, r)
		return
	}
	n, ok := limitN(w, r)
	if !ok {
		return
	}
	events := e.flight.Events()
	if events == nil {
		events = []FlightEvent{}
	}
	retained := len(events)
	if n >= 0 && n < len(events) {
		events = events[len(events)-n:]
	}
	doc := struct {
		Total    uint64        `json:"total"`
		Retained int           `json:"retained"`
		Returned int           `json:"returned"`
		Events   []FlightEvent `json:"events"`
	}{Total: e.flight.Total(), Retained: retained, Returned: len(events), Events: events}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc) //nolint:errcheck // best-effort debug dump
}

// handleOps streams the server-side wall-clock op spans as JSONL — one half
// of the input to `traces -merge`. ?n= trims the stream to the n
// latest-starting spans.
func (e *exposition) handleOps(w http.ResponseWriter, r *http.Request) {
	if e.ops == nil {
		http.NotFound(w, r)
		return
	}
	n, ok := limitN(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := e.ops.WriteLastJSONL(w, n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
