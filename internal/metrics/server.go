package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"repro/internal/trace"
)

// Server is the METRICS server — the central box of Fig. 11. (The
// original used Java servlets and EJB; "reimplementing METRICS with
// today's commodity networking ... will be much simpler", and it is.)
// Design records reach it through the warehouse API mounted on Aux; the
// server itself is the live introspection surface of a running
// campaign. It is also the one HTTP server type of every campaign
// process: a dist worker or store is a Server with its /v1 routes on
// Aux, so every node serves these endpoints too:
//
//	/stats        counter dump
//	/metrics      plain-text exposition of every counter and histogram
//	              (one "name value" / histogram line each)
//	/debug/spans  JSON snapshot of the armed tracer: in-flight spans
//	              (what the campaign is doing right now) and recent
//	              finished spans
//	/debug/hist   plain-text per-span-name latency quantiles
//	/debug/pprof  the standard net/http/pprof handlers
type Server struct {
	// Trace overrides the tracer the /debug endpoints introspect
	// (default: whatever tracer is armed process-wide at request time).
	Trace *trace.Tracer

	// FrontDoor, when non-nil, mounts the campaign submission service
	// (/v1/campaigns...) on this server. Set it before Start.
	FrontDoor *FrontDoor

	// Aux mounts extra handlers by pattern before Start — how the span
	// collector ("/v1/spans"), the METRICS warehouse ("/warehouse/") and
	// the dist worker and store routes ("/v1/run", "/v1/entry", ...)
	// ride on this server without this package importing them.
	Aux map[string]http.Handler

	// mu guards the serve/close lifecycle so Start, Close and in-flight
	// handlers can race freely: Close is idempotent, and Start after
	// Close fails instead of leaking a listener.
	mu      sync.Mutex
	closed  bool
	httpSrv *http.Server
}

// NewServer creates a server; set Trace, FrontDoor and Aux before Start.
func NewServer() *Server { return &Server{} }

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("metrics: server is closed")
	}
	if s.httpSrv != nil {
		return "", fmt.Errorf("metrics: server already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/spans", s.handleSpans)
	mux.HandleFunc("/debug/hist", s.handleHist)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if s.FrontDoor != nil {
		s.FrontDoor.mount(mux)
	}
	for pattern, h := range s.Aux {
		mux.Handle(pattern, h)
	}
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close shuts the server down abortively: the front door first (its
// streams and dispatcher hold handler goroutines open), then the HTTP
// server, killing in-flight connections. Idempotent, and safe to race
// with Start, Shutdown and in-flight requests — a Close that wins the
// race leaves Start returning an error rather than a leaked listener.
func (s *Server) Close() error {
	srv := s.stop()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// Shutdown stops the server gracefully: the front door closes, then the
// listener, and in-flight requests finish (bounded by ctx). Idempotent
// with Close.
func (s *Server) Shutdown(ctx context.Context) error {
	srv := s.stop()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// stop marks the server closed and closes its front door. It returns
// the HTTP server to stop, or nil when there is none or an earlier
// Close or Shutdown already took it.
func (s *Server) stop() *http.Server {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	srv, fd := s.httpSrv, s.FrontDoor
	s.mu.Unlock()
	if fd != nil {
		fd.Close()
	}
	return srv
}

// tracer resolves the tracer the /debug endpoints introspect.
func (s *Server) tracer() *trace.Tracer {
	if s.Trace != nil {
		return s.Trace
	}
	return trace.Active()
}

// handleStats is the counter dump: every process-wide counter, one
// "name value" line each.
func handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	Default.Write(w)
}

// handleMetrics is the plain-text exposition endpoint: every counter,
// then the armed tracer's latency histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	handleStats(w, r)
	if t := s.tracer(); t != nil {
		t.Histograms().Write(w)
	}
}

// spansResponse is the /debug/spans JSON shape.
type spansResponse struct {
	Enabled bool       `json:"enabled"`
	Live    []liveSpan `json:"live,omitempty"`
	Done    []doneSpan `json:"done,omitempty"`
	Dropped int64      `json:"dropped,omitempty"`
}

type liveSpan struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	AgeUs  float64 `json:"age_us"`
}

type doneSpan struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUs float64           `json:"start_us"`
	DurUs   float64           `json:"dur_us"`
	Outcome string            `json:"outcome"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// handleSpans is the live campaign introspection endpoint: the armed
// tracer's in-flight spans (oldest first — a wedged stage shows up at
// the top with a growing age) plus up to ?n= most recent finished
// spans (default 100).
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	t := s.tracer()
	if t == nil {
		json.NewEncoder(w).Encode(spansResponse{Enabled: false}) //nolint:errcheck
		return
	}
	limit := 100
	if q := r.URL.Query().Get("n"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n >= 0 {
			limit = n
		}
	}
	resp := spansResponse{Enabled: true}
	for _, ls := range t.Live() {
		resp.Live = append(resp.Live, liveSpan{
			ID: ls.ID, Parent: ls.Parent, Name: ls.Name,
			AgeUs: float64(ls.Age.Nanoseconds()) / 1e3,
		})
	}
	done, dropped := t.Snapshot()
	resp.Dropped = dropped
	if len(done) > limit {
		resp.Dropped += int64(len(done) - limit)
		done = done[len(done)-limit:] // keep the most recent
	}
	for _, sd := range done {
		ds := doneSpan{
			ID: sd.ID, Parent: sd.Parent, Name: sd.Name,
			StartUs: float64(sd.Start.Nanoseconds()) / 1e3,
			DurUs:   float64(sd.Dur.Nanoseconds()) / 1e3,
			Outcome: string(sd.Outcome),
		}
		if len(sd.Attrs) > 0 {
			ds.Attrs = make(map[string]string, len(sd.Attrs))
			for _, a := range sd.Attrs {
				ds.Attrs[a.Key] = a.Val
			}
		}
		resp.Done = append(resp.Done, ds)
	}
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// handleHist renders the armed tracer's per-span-name latency
// histograms as plain text.
func (s *Server) handleHist(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t := s.tracer()
	if t == nil {
		fmt.Fprintln(w, "# tracing off (run with -trace or trace.Enable)")
		return
	}
	t.Histograms().Write(w)
}
