package warehouse

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/metrics"
)

// maxIngestBytes bounds one ingest POST.
const maxIngestBytes = 64 << 20

// NewHandler returns the warehouse HTTP API, mountable under any
// prefix (the metrics front door mounts it at /warehouse/):
//
//	POST /v1/records           ingest a JSON array of Records
//	GET  /v1/records?...       query (campaign, stage, node, design, since)
//	GET  /v1/aggregate?...&scalar=S   p50/p90/p99 of scalar S over the match
//	GET  /v1/dump?campaign=C   canonical byte-diffable dump
//	GET  /v1/tail?...          SSE live tail of matching records
//	GET  /v1/mine?base=A&head=B[&tolerance=PCT]   regressions between campaigns
//	GET  /v1/stats             store counters
func NewHandler(w *Warehouse) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/records", func(rw http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			handleIngest(w, rw, r)
		case http.MethodGet:
			writeJSON(rw, w.Select(queryOf(r)))
		default:
			http.Error(rw, "GET or POST", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/v1/aggregate", func(rw http.ResponseWriter, r *http.Request) {
		scalar := r.URL.Query().Get("scalar")
		if scalar == "" {
			http.Error(rw, "scalar parameter required", http.StatusBadRequest)
			return
		}
		writeJSON(rw, w.Aggregate(queryOf(r), scalar))
	})
	mux.HandleFunc("/v1/dump", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.DumpCanonical(rw, r.URL.Query().Get("campaign"))
	})
	mux.HandleFunc("/v1/tail", func(rw http.ResponseWriter, r *http.Request) {
		handleTail(w, rw, r)
	})
	mux.HandleFunc("/v1/mine", func(rw http.ResponseWriter, r *http.Request) {
		base, head := r.URL.Query().Get("base"), r.URL.Query().Get("head")
		if base == "" || head == "" {
			http.Error(rw, "base and head parameters required", http.StatusBadRequest)
			return
		}
		tol := 1.0
		if tv := r.URL.Query().Get("tolerance"); tv != "" {
			f, err := strconv.ParseFloat(tv, 64)
			if err != nil {
				http.Error(rw, "bad tolerance", http.StatusBadRequest)
				return
			}
			tol = f
		}
		writeJSON(rw, Mine(w, base, head, tol))
	})
	mux.HandleFunc("/v1/stats", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, w.Stats())
	})
	return mux
}

// handleIngest appends a POSTed batch. A body that is not a JSON array
// of records is refused with 400 and counted in warehouse.rejected.
func handleIngest(w *Warehouse, rw http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxIngestBytes))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	var recs []Record
	if err := json.Unmarshal(body, &recs); err != nil {
		metrics.Add("warehouse.rejected", 1)
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if err := w.AppendBatch(recs); err != nil {
		// WAL failure: the node will retry the whole batch; dedupe makes
		// a partly durable one harmless.
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintf(rw, "{\"ingested\":%d}\n", len(recs))
}

// handleTail streams matching records as server-sent events until the
// client hangs up — the "watch a 3-node sweep live" endpoint.
func handleTail(w *Warehouse, rw http.ResponseWriter, r *http.Request) {
	fl, ok := rw.(http.Flusher)
	if !ok {
		http.Error(rw, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	q := queryOf(r)
	ch, cancel := w.Subscribe()
	defer cancel()
	rw.Header().Set("Content-Type", "text/event-stream")
	rw.Header().Set("Cache-Control", "no-cache")
	rw.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case rec, open := <-ch:
			if !open {
				return
			}
			if !q.match(rec) {
				continue
			}
			b, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			fmt.Fprintf(rw, "event: record\ndata: %s\n\n", b)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func queryOf(r *http.Request) Query {
	qs := r.URL.Query()
	since, _ := strconv.ParseInt(qs.Get("since"), 10, 64)
	return Query{
		Campaign: qs.Get("campaign"),
		Stage:    qs.Get("stage"),
		Node:     qs.Get("node"),
		Design:   qs.Get("design"),
		Since:    since,
	}
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
