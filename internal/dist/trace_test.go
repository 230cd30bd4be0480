package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func attr(sd trace.SpanData, key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestRPCRetryTraceAdoption is the satellite contract: when an RPC is
// retried, the stitched trace shows exactly one dist.rpc span per
// logical attempt, the server-side span parents under the attempt that
// actually carried it, and no span is orphaned.
func TestRPCRetryTraceAdoption(t *testing.T) {
	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()

	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= 2 {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		// The real worker/store handlers do exactly this: adopt the
		// attempt's identity from the headers, then span the server work.
		_, sp := trace.Start(trace.AdoptHTTP(r.Context(), r.Header), "server.work")
		sp.End()
		rw.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	r := newRPC(RPCConfig{backoffBase: time.Millisecond}, "store")
	defer r.closeIdle()
	ctx, root := tr.StartOn(context.Background(), "caller")
	res, err := r.do(ctx, "test.op", http.MethodGet, srv.URL, nil, 1<<20, false)
	root.End()
	if err != nil || res.status != http.StatusOK {
		t.Fatalf("rpc: status=%d err=%v", res.status, err)
	}

	spans, _ := tr.Snapshot()
	byID := map[uint64]trace.SpanData{}
	var attempts, server []trace.SpanData
	for _, sd := range spans {
		byID[sd.ID] = sd
		switch sd.Name {
		case "dist.rpc":
			attempts = append(attempts, sd)
		case "server.work":
			server = append(server, sd)
		}
	}

	// Exactly one span per logical attempt: two 503s + one 200.
	if len(attempts) != 3 {
		t.Fatalf("got %d dist.rpc spans, want 3 (one per attempt): %+v", len(attempts), attempts)
	}
	outcomes := map[trace.Outcome]int{}
	var okAttempt trace.SpanData
	for _, a := range attempts {
		outcomes[a.Outcome]++
		if a.Outcome == trace.OK {
			okAttempt = a
		}
		if a.Parent != root.ID() {
			t.Fatalf("attempt span parent = %d, want caller %d", a.Parent, root.ID())
		}
	}
	if outcomes[trace.Retry] != 2 || outcomes[trace.OK] != 1 {
		t.Fatalf("attempt outcomes = %v, want 2 retries + 1 ok", outcomes)
	}
	if got := attr(okAttempt, "attempt"); got != "2" {
		t.Fatalf("succeeding attempt attr = %q, want \"2\"", got)
	}

	// The server-side span exists once and parents under the succeeding
	// attempt — not the first attempt, not the caller.
	if len(server) != 1 {
		t.Fatalf("got %d server.work spans, want 1", len(server))
	}
	if server[0].Parent != okAttempt.ID {
		t.Fatalf("server span parent = %d, want succeeding attempt %d", server[0].Parent, okAttempt.ID)
	}

	// No orphans: every non-root span's parent is in the snapshot.
	for _, sd := range spans {
		if sd.Parent == 0 {
			continue
		}
		if _, ok := byID[sd.Parent]; !ok {
			t.Fatalf("span %q (%d) orphaned: parent %d not in trace", sd.Name, sd.ID, sd.Parent)
		}
	}
}

// TestNodeDebugEndpoints: a real worker and a real store each serve
// /metrics (live counters + histograms), /debug/spans and the stock
// pprof set on their own listen address.
func TestNodeDebugEndpoints(t *testing.T) {
	metrics.Add("dist.rpc.retried", 1) // ensure the counter exists in the dump
	cl := startCluster(t, sweepPoints(tinyDesign(1), 1, 1), 1, nil)
	for name, base := range map[string]string{
		"store":  cl.client.base,
		"worker": cl.nodes[0].URL,
	} {
		get := func(path string) string {
			t.Helper()
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatalf("%s %s: %v", name, path, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d, err %v", name, path, resp.StatusCode, err)
			}
			return string(body)
		}
		if body := get("/metrics"); !strings.Contains(body, "dist.rpc.retried") {
			t.Fatalf("%s /metrics missing dist.rpc.retried:\n%s", name, body)
		}
		get("/debug/pprof/")
		get("/debug/pprof/cmdline")
		if body := get("/debug/spans"); !strings.Contains(body, `"enabled"`) {
			t.Fatalf("%s /debug/spans is not the spans JSON: %s", name, body)
		}
	}
}
