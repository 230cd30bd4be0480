package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// TestCampaignTraceCoverage runs a real seeded campaign under an armed
// tracer and checks the resulting Chrome trace end-to-end: it must be
// valid trace_event JSON whose spans cover the whole stack — campaign
// run/points, flow stages, router iterations, scheduler waits — with
// every event well-formed and memo hits marked. This is the
// -trace-flag contract without the CLI in the loop.
func TestCampaignTraceCoverage(t *testing.T) {
	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()

	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 2, 2)
	// Duplicate the points so the second half memo-hits.
	pts = append(pts, pts...)
	eng := New(Config{Workers: 2, Cache: NewCache(0)})
	if _, err := eng.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	trace.Disable()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	byName := map[string]int{}
	cacheHits := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q: phase %q, want complete event X", ev.Name, ev.Ph)
		}
		if ev.Name == "" || ev.Cat == "" || ev.Tid == 0 {
			t.Fatalf("malformed event: %+v", ev)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("event %q: negative time ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
		}
		byName[ev.Name]++
		if ev.Args["outcome"] == string(trace.CacheHit) {
			cacheHits++
		}
	}

	// The span taxonomy the tentpole promises: campaign lifecycle, flow
	// stages, router inner loop, scheduler queueing.
	for _, want := range []string{
		"campaign.run", "campaign.point",
		"flow.run", "flow.synth", "flow.droute",
		"route.iter",
		"sched.wait", "sched.run",
	} {
		if byName[want] == 0 {
			t.Errorf("trace has no %q spans (got %v)", want, byName)
		}
	}
	if byName["campaign.run"] != 1 {
		t.Errorf("campaign.run spans = %d, want 1", byName["campaign.run"])
	}
	if byName["campaign.point"] != len(pts) {
		t.Errorf("campaign.point spans = %d, want %d", byName["campaign.point"], len(pts))
	}
	// The duplicated half of the points must be traced as cache hits.
	if cacheHits < len(pts)/2 {
		t.Errorf("cache-hit spans = %d, want >= %d", cacheHits, len(pts)/2)
	}

	// Latency histograms accumulated alongside: one per span name, with
	// counts matching the trace.
	snaps := tr.Histograms().Snapshots()
	hist := map[string]int64{}
	for _, h := range snaps {
		hist[h.Name] = h.Count
	}
	for name, n := range byName {
		if hist[name] != int64(n) {
			t.Errorf("histogram %s count=%d, trace has %d spans", name, hist[name], n)
		}
	}
}
