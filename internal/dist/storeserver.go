package dist

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// StoreServer exposes a Store over HTTP — the central box every worker
// talks to:
//
//	GET  /v1/entry?key=K          encoded entry bytes | 404
//	PUT  /v1/entry?key=K          body = encoded entry; {"stored":bool}
//	GET  /v1/stats                StoreStats JSON
//	GET  /healthz                 "ok"
//
// These ride on a metrics.Server, as a worker's do.
type StoreServer struct {
	store *Store
	srv   *metrics.Server
}

// maxEntryBytes bounds one encoded entry on the wire — a put body, a
// get or run answer. An entry is a point's summary, ~4 KB whatever the
// design's size; 1 MiB is slack, not a budget, and far inside the WAL's
// own record bound, so an accepted put can always be journaled.
const maxEntryBytes = 1 << 20

// NewStoreServer wraps a store.
func NewStoreServer(store *Store) *StoreServer {
	s := &StoreServer{store: store, srv: metrics.NewServer()}
	s.srv.Aux = map[string]http.Handler{
		"/v1/entry": http.HandlerFunc(s.handleEntry),
		"/v1/stats": http.HandlerFunc(s.handleStats),
		"/healthz":  http.HandlerFunc(handleHealthz),
	}
	return s
}

// Store returns the underlying store.
func (s *StoreServer) Store() *Store { return s.store }

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *StoreServer) Start(addr string) (string, error) { return s.srv.Start(addr) }

// Close stops serving (idempotent; the store itself stays usable and is
// closed separately so its WAL outlives the listener).
func (s *StoreServer) Close() error { return s.srv.Close() }

// Shutdown stops the server gracefully: in-flight requests (a put being
// journaled) finish before the listener closes, bounded by ctx.
// Idempotent with Close.
func (s *StoreServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n") //nolint:errcheck
}

func (s *StoreServer) handleEntry(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := s.store.Get(key)
		if !ok {
			http.Error(w, "no entry", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data) //nolint:errcheck
	case http.MethodPut, http.MethodPost:
		// Adopt the caller's trace context so the durable write (WAL
		// append included) shows up under the worker's publish attempt in
		// the stitched trace.
		_, sp := trace.Start(trace.AdoptHTTP(r.Context(), r.Header), "dist.store.put")
		sp.Set("key", key)
		data, err := io.ReadAll(io.LimitReader(r.Body, maxEntryBytes))
		if err != nil {
			sp.EndErr(err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		stored, err := s.store.Put(key, data)
		if err != nil {
			sp.EndErr(err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sp.End()
		writeJSON(w, map[string]bool{"stored": stored})
	default:
		http.Error(w, "GET or PUT required", http.StatusMethodNotAllowed)
	}
}

func (s *StoreServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.store.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}
