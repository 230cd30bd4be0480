package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// chromeFile is the part of a Chrome trace these tests read.
type chromeFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Dur  float64 `json:"dur"`
	} `json:"traceEvents"`
	DroppedSpans int64 `json:"droppedSpans"`
}

// readTrace parses the Chrome trace JSON flush wrote to path.
func readTrace(t *testing.T, path string) chromeFile {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c chromeFile
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("the trace file is not JSON: %v\n%s", err, b)
	}
	return c
}

// TestZeroConfigArmsNothing: no tracer, no file, and a flush that only
// returns.
func TestZeroConfigArmsNothing(t *testing.T) {
	flush, err := SetupCfg(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Active() != nil {
		flush()
		t.Fatal("a zero Config armed the tracer")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	flush()
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("a zero Config's flush wrote %v (%v)", entries, err)
	}
}

// TestTraceFileHoldsSpan: with TraceFile set the tracer is armed until
// flush, and flush writes a Chrome trace holding a span begun after
// setup.
func TestTraceFileHoldsSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	flush, err := SetupCfg(Config{TraceFile: path})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Active() == nil {
		flush()
		t.Fatal("TraceFile did not arm the tracer")
	}
	trace.Begin("obs.test.span").End()
	flush()
	if trace.Active() != nil {
		t.Fatal("flush left the tracer armed")
	}
	c := readTrace(t, path)
	found := false
	for _, e := range c.TraceEvents {
		if e.Name == "obs.test.span" {
			found = e.Ph == "X" && e.Dur >= 0
		}
	}
	if !found {
		t.Fatalf("the trace holds no complete event for the span: %+v", c.TraceEvents)
	}
}

// TestSpanRetentionCaps: finished spans past SpanRetention are dropped
// and counted, not kept.
func TestSpanRetentionCaps(t *testing.T) {
	const retention, spans = 16, 200
	path := filepath.Join(t.TempDir(), "trace.json")
	flush, err := SetupCfg(Config{TraceFile: path, SpanRetention: retention})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spans; i++ {
		trace.Begin("obs.test.span").End()
	}
	flush()
	c := readTrace(t, path)
	if len(c.TraceEvents) != retention || c.DroppedSpans != spans-retention {
		t.Fatalf("%d spans kept and %d dropped of %d finished; want %d and %d",
			len(c.TraceEvents), c.DroppedSpans, spans, retention, spans-retention)
	}
}

// TestSpanRetentionDefault: SpanRetention 0 caps at
// trace.DefaultRetention, and a negative one keeps every span.
func TestSpanRetentionDefault(t *testing.T) {
	const over = 10
	spans := make([]trace.SpanData, trace.DefaultRetention+over)
	for i := range spans {
		spans[i] = trace.SpanData{ID: uint64(i + 1), Name: "obs.test.span"}
	}
	for _, c := range []struct {
		retention int
		dropped   int64
	}{{0, over}, {-1, 0}} {
		path := filepath.Join(t.TempDir(), "trace.json")
		flush, err := SetupCfg(Config{TraceFile: path, SpanRetention: c.retention})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Active()
		tr.Ingest(spans, 0)
		_, dropped := tr.Snapshot()
		tr.Drain() // flush need not write 64k spans
		flush()
		if dropped != c.dropped {
			t.Fatalf("SpanRetention %d: %d spans dropped, want %d", c.retention, dropped, c.dropped)
		}
	}
}

// TestNodeNamespace: an unnamed process keeps span namespace 0; a named
// one gets a stable, non-zero namespace that differs between names.
func TestNodeNamespace(t *testing.T) {
	if ns := namespace(""); ns != 0 {
		t.Fatalf(`namespace("") = %d, want 0`, ns)
	}
	w0, w1 := namespace("w0"), namespace("w1")
	if w0 == 0 || w1 == 0 || w0 == w1 {
		t.Fatalf("namespaces w0=%d w1=%d: want two distinct non-zero ids", w0, w1)
	}
	if namespace("w0") != w0 {
		t.Fatal("a node's namespace is not stable")
	}
}
