// Span collection: the cross-process half of distributed tracing.
//
// Propagation contract (see DESIGN.md "Observability"):
//
//   - An RPC client calls InjectHTTP(ctx, req.Header), stamping the
//     hex headers Trace-Id (root ancestor id) and Span-Id (the span the
//     remote work should parent under).
//   - The server calls AdoptHTTP(r.Context(), r.Header); the first span
//     it starts becomes a child of the caller's span, in the caller's
//     trace, even though the two sides run different tracer instances.
//   - Workers periodically Drain() finished spans and POST a ShipBatch
//     to the coordinator's collector endpoint; the collector Ingests
//     them, shifting timestamps by the epoch skew, so one tracer holds
//     the whole fleet's stitched trace.
//
// Span ids are namespaced by Config.NodeID (NodeID<<48), so batches
// from different processes can never collide in the collector.
package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Header names carrying trace context on every inter-node RPC.
const (
	TraceIDHeader = "Trace-Id"
	SpanIDHeader  = "Span-Id"
)

// InjectHTTP stamps the trace-context headers for the span in ctx onto
// h. No-op when ctx carries no span (tracing off, or an untraced call
// path) — absent headers mean the receiver starts a fresh root.
func InjectHTTP(ctx context.Context, h http.Header) {
	traceID, spanID := Inject(ctx)
	if spanID == 0 {
		return
	}
	h.Set(TraceIDHeader, strconv.FormatUint(traceID, 16))
	h.Set(SpanIDHeader, strconv.FormatUint(spanID, 16))
}

// AdoptHTTP returns ctx extended with the remote parent described by
// h's trace-context headers, if present and well-formed; otherwise ctx
// unchanged.
func AdoptHTTP(ctx context.Context, h http.Header) context.Context {
	sv := h.Get(SpanIDHeader)
	if sv == "" {
		return ctx
	}
	spanID, err := strconv.ParseUint(sv, 16, 64)
	if err != nil || spanID == 0 {
		return ctx
	}
	traceID, _ := strconv.ParseUint(h.Get(TraceIDHeader), 16, 64)
	return Adopt(ctx, traceID, spanID)
}

// ShipBatch is one POST body of finished spans from a node to the
// collector.
type ShipBatch struct {
	// Node is the shipping process's node ID ("w0", "store", ...) —
	// recorded for diagnostics; span ids already carry the numeric
	// namespace.
	Node string
	// Epoch is the shipping tracer's wall-clock origin. The collector
	// shifts span Starts by Epoch minus its own epoch so all nodes share
	// one timeline.
	Epoch time.Time
	Spans []SpanData
}

// maxShipBytes bounds one collector POST (64k spans ≈ 16 MB of JSON).
const maxShipBytes = 64 << 20

// NewCollectorHandler returns the HTTP handler for the collector
// endpoint: it decodes ShipBatch POSTs and ingests the spans into t.
func NewCollectorHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxShipBytes))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var batch ShipBatch
		if err := json.Unmarshal(body, &batch); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		skew := time.Duration(0)
		if !batch.Epoch.IsZero() {
			skew = batch.Epoch.Sub(t.Epoch())
		}
		t.Ingest(batch.Spans, skew)
		w.WriteHeader(http.StatusOK)
	})
}

// shipInterval is how often a Shipper drains its tracer.
const shipInterval = 500 * time.Millisecond

// Shipper periodically drains a tracer and POSTs the batches to a
// collector URL. It holds no spans of its own: a batch whose POST fails
// goes back into the tracer's ring, so the retention cap bounds what a
// dead collector leaves on the node, and a final ship on Stop sends
// whatever remains.
type Shipper struct {
	tr     *Tracer
	node   string
	url    string
	client *http.Client
	stop   chan struct{}
	done   chan struct{}
}

// NewShipper creates a shipper sending t's finished spans to the
// collector at url (e.g. "http://coord:7600/v1/spans") every 500ms.
// Call Start to begin and Stop to flush and halt.
func NewShipper(t *Tracer, node, url string) *Shipper {
	return &Shipper{
		tr: t, node: node, url: url,
		client: &http.Client{Timeout: 10 * time.Second},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the shipping loop.
func (sh *Shipper) Start() {
	go func() {
		defer close(sh.done)
		tick := time.NewTicker(shipInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sh.ship()
			case <-sh.stop:
				return
			}
		}
	}()
}

// Stop halts the loop and ships one final batch so no finished span is
// stranded on the node.
func (sh *Shipper) Stop() {
	close(sh.stop)
	<-sh.done
	sh.ship()
}

// ship drains the tracer and POSTs the batch. A failed batch is kept
// again by the tracer, where the histograms have already seen it, to
// be retried next tick; spans it evicts count as dropped.
func (sh *Shipper) ship() error {
	spans := sh.tr.Drain()
	if len(spans) == 0 {
		return nil
	}
	err := sh.post(spans)
	if err != nil {
		sh.tr.keep(spans, 0)
	}
	return err
}

// post sends one batch to the collector; any non-200 is an error.
func (sh *Shipper) post(spans []SpanData) error {
	body, err := json.Marshal(ShipBatch{Node: sh.node, Epoch: sh.tr.Epoch(), Spans: spans})
	if err != nil {
		return err
	}
	resp, err := sh.client.Post(sh.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace: ship: collector returned %s", resp.Status)
	}
	return nil
}
