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
	if trace.Enabled() {
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
	if !trace.Enabled() {
		flush()
		t.Fatal("TraceFile did not arm the tracer")
	}
	trace.Begin("obs.test.span").End()
	flush()
	if trace.Enabled() {
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
	if len(c.TraceEvents) == 0 || len(c.TraceEvents) > retention {
		t.Fatalf("%d spans kept of %d finished; want 1..%d", len(c.TraceEvents), spans, retention)
	}
	if got := int64(len(c.TraceEvents)) + c.DroppedSpans; got != spans {
		t.Fatalf("%d kept + %d dropped = %d, want %d", len(c.TraceEvents), c.DroppedSpans, got, spans)
	}
}
