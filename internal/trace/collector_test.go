package trace

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestInjectAdoptHTTP proves the header round-trip: a span's identity
// crosses process boundaries and the receiving side's span parents
// under it with the original trace id.
func TestInjectAdoptHTTP(t *testing.T) {
	tr := New(0)
	ctx, root := tr.StartOn(context.Background(), "root")
	ctx, parent := tr.StartOn(ctx, "parent")

	h := http.Header{}
	InjectHTTP(ctx, h)
	if h.Get(TraceIDHeader) == "" || h.Get(SpanIDHeader) == "" {
		t.Fatalf("InjectHTTP stamped nothing: %v", h)
	}

	// The "remote" side: a different tracer adopting the headers.
	remote := NewCfg(Config{Retention: -1, NodeID: 7})
	rctx := AdoptHTTP(context.Background(), h)
	_, child := remote.StartOn(rctx, "child")
	child.End()
	parent.End()
	root.End()

	spans := remote.Drain()
	if len(spans) != 1 {
		t.Fatalf("remote tracer has %d spans, want 1", len(spans))
	}
	if spans[0].Parent != parent.ID() {
		t.Fatalf("child parent = %d, want %d", spans[0].Parent, parent.ID())
	}
	if spans[0].ID>>48 != 7 {
		t.Fatalf("child id %#x not in node namespace 7", spans[0].ID)
	}
}

// TestAdoptLocalWins: an in-process span in the context shadows any
// adopted remote ref.
func TestAdoptLocalWins(t *testing.T) {
	tr := New(0)
	ctx := Adopt(context.Background(), 999, 999)
	ctx, local := tr.StartOn(ctx, "local")
	if local.parent != 999 {
		t.Fatalf("first span parent = %d, want adopted 999", local.parent)
	}
	_, child := tr.StartOn(ctx, "child")
	if child.parent != local.ID() {
		t.Fatalf("child parent = %d, want local span %d", child.parent, local.ID())
	}
}

// TestRootThreading: every span carries the id of its root ancestor, so
// Inject propagates the trace id unchanged through deep chains.
func TestRootThreading(t *testing.T) {
	tr := New(0)
	ctx, a := tr.StartOn(context.Background(), "a")
	ctx, _ = tr.StartOn(ctx, "b")
	ctx, _ = tr.StartOn(ctx, "c")
	traceID, _ := Inject(ctx)
	if traceID != a.ID() {
		t.Fatalf("trace id = %d, want root %d", traceID, a.ID())
	}
}

// TestCollectorEndToEnd ships spans from a node tracer to a collector
// tracer over real HTTP and checks they land with skew-corrected
// timestamps and feed the collector's histograms.
func TestCollectorEndToEnd(t *testing.T) {
	coll := New(0)
	srv := httptest.NewServer(NewCollectorHandler(coll))
	defer srv.Close()

	node := NewCfg(Config{Retention: -1, NodeID: 3})
	_, sp := node.StartOn(context.Background(), "work")
	sp.Set("node", "w3")
	sp.End()

	sh := NewShipper(node, "w3", srv.URL, time.Hour) // manual flushes only
	if err := sh.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if node.Len() != 0 {
		t.Fatalf("node retains %d spans after ship, want 0", node.Len())
	}
	spans, _ := coll.Snapshot()
	if len(spans) != 1 || spans[0].Name != "work" {
		t.Fatalf("collector has %v, want one 'work' span", spans)
	}
	if spans[0].ID>>48 != 3 {
		t.Fatalf("ingested id %#x lost its node namespace", spans[0].ID)
	}
	found := false
	for _, hs := range coll.Histograms().Snapshots() {
		if hs.Name == "work" && hs.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingest did not feed the collector histogram")
	}
}

// TestIngestRetention: ingested spans respect the retention cap and
// count drops.
func TestIngestRetention(t *testing.T) {
	tr := NewCfg(Config{Retention: shardCount}) // one retained span per shard
	var spans []SpanData
	for i := 1; i <= 10*shardCount; i++ {
		spans = append(spans, SpanData{ID: uint64(i), Name: "x"})
	}
	tr.Ingest(spans, 0)
	if tr.Len() != shardCount {
		t.Fatalf("retained %d spans, want %d", tr.Len(), shardCount)
	}
	if _, dropped := tr.Snapshot(); dropped != int64(9*shardCount) {
		t.Fatalf("dropped = %d, want %d", dropped, 9*shardCount)
	}
}
