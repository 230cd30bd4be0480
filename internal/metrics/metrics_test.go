package metrics_test

// The Fig. 11 loop end to end: design records stored in the METRICS
// warehouse, mined by its queries, and shipped to it over the METRICS
// server.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/warehouse"
)

func openMem(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	w, err := warehouse.Open("", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// appendRun ingests the stage records of one flow run as point p of
// campaign c.
func appendRun(t *testing.T, w *warehouse.Warehouse, c string, p int, design string, seed int64, freq float64, stages map[string]map[string]float64) {
	t.Helper()
	for stage, scalars := range stages {
		r := warehouse.Record{Campaign: c, Point: p, Stage: stage, Design: design, Seed: seed, FreqGHz: freq, Scalars: scalars}
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// fillRuns ingests six runs of design "core" at 0.3 to 0.8 GHz, one
// campaign point each; the runs below 0.6 GHz meet timing.
func fillRuns(t *testing.T, w *warehouse.Warehouse) {
	t.Helper()
	for i := 0; i < 6; i++ {
		freq := 0.3 + 0.1*float64(i)
		wns := -80.0
		if freq < 0.6 {
			wns = 50
		}
		appendRun(t, w, "c", i, "core", int64(i), freq, map[string]map[string]float64{
			"synth":  {"area": 400 + 100*freq},
			"place":  {"hpwl": 900 - 10*float64(i)},
			"groute": {"overflow": 3},
			"droute": {"drvs": 20},
			"sta":    {"wns": wns, "maxfreq": 0.62},
		})
	}
}

// serveWarehouse mounts a memory-only warehouse at /warehouse/ on a
// METRICS server on loopback, as metricsd does, and returns the
// warehouse and the server's root URL.
func serveWarehouse(t *testing.T) (*warehouse.Warehouse, string) {
	t.Helper()
	wh := openMem(t)
	srv := metrics.NewServer()
	srv.Aux = map[string]http.Handler{"/warehouse/": http.StripPrefix("/warehouse", warehouse.NewHandler(wh))}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return wh, "http://" + addr
}

func TestStoreQuery(t *testing.T) {
	w := openMem(t)
	for i, r := range []struct{ design, stage string }{{"a", "synth"}, {"a", "sta"}, {"b", "sta"}} {
		if err := w.Append(warehouse.Record{Campaign: "c", Point: i, Design: r.design, Stage: r.stage}); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.Stats().Records; n != 3 {
		t.Fatalf("len %d", n)
	}
	if got := len(w.Select(warehouse.Query{Design: "a"})); got != 2 {
		t.Fatalf("design filter got %d", got)
	}
	if got := len(w.Select(warehouse.Query{Stage: "sta"})); got != 2 {
		t.Fatalf("stage filter got %d", got)
	}
	if got := len(w.Select(warehouse.Query{Design: "b", Stage: "sta"})); got != 1 {
		t.Fatalf("combined filter got %d", got)
	}
	if got := len(w.Select(warehouse.Query{})); got != 3 {
		t.Fatalf("open filter got %d", got)
	}
}

func TestSummarize(t *testing.T) {
	w := openMem(t)
	fillRuns(t, w)
	sums := warehouse.Summarize(w, "core")
	if len(sums) != 6 {
		t.Fatalf("%d summaries, want 6", len(sums))
	}
	for i, sum := range sums {
		if sum.Point != i || sum.AreaUm2 <= 0 || sum.FinalDRVs < 0 {
			t.Fatalf("incomplete summary %+v", sum)
		}
		if sum.Met != (sum.TimingMet && sum.RouteOK) {
			t.Fatal("Met flag inconsistent")
		}
	}
}

// TestSummarizeKeepsSeedSharingRunsApart: a run is its (campaign,
// point), not its seed — two runs of one design with one seed at two
// targets are two summaries, each with its own target and metrics.
func TestSummarizeKeepsSeedSharingRunsApart(t *testing.T) {
	w := openMem(t)
	appendRun(t, w, "c", 0, "core", 7, 0.4, map[string]map[string]float64{
		"synth": {"area": 10}, "droute": {"drvs": 20}, "sta": {"wns": 30, "maxfreq": 0.5},
	})
	appendRun(t, w, "c", 1, "core", 7, 0.9, map[string]map[string]float64{
		"synth": {"area": 20}, "droute": {"drvs": 20}, "sta": {"wns": -40, "maxfreq": 0.5},
	})
	sums := warehouse.Summarize(w, "core")
	if len(sums) != 2 {
		t.Fatalf("two runs sharing seed 7 gave %d summaries: %+v", len(sums), sums)
	}
	if s := sums[0]; s.FreqGHz != 0.4 || s.AreaUm2 != 10 || !s.Met {
		t.Errorf("first run %+v, want 0.4 GHz, area 10, met", s)
	}
	if s := sums[1]; s.FreqGHz != 0.9 || s.AreaUm2 != 20 || s.Met {
		t.Errorf("second run %+v, want 0.9 GHz, area 20, not met", s)
	}
}

func TestMinerBestTargetFreq(t *testing.T) {
	w := openMem(t)
	fillRuns(t, w)
	best, ok := warehouse.BestTargetFreq(w, "core")
	if !ok {
		t.Fatal("no met runs found")
	}
	if best < 0.49 || best > 0.6 {
		t.Fatalf("best target %v, want ~0.5 (last met run)", best)
	}
}

func TestMinerSensitivity(t *testing.T) {
	w := openMem(t)
	fillRuns(t, w)
	corr, err := warehouse.Sensitivity(w, "synth", "area")
	if err != nil {
		t.Fatal(err)
	}
	if corr < 0.9 {
		t.Errorf("area grows with target in the fixture; corr = %v", corr)
	}
	if _, err := warehouse.Sensitivity(w, "synth", "nonexistent"); err == nil {
		t.Error("missing scalar should error")
	}
}

func TestMinerPrescribeFreqRange(t *testing.T) {
	w := openMem(t)
	fillRuns(t, w)
	lo, hi, err := warehouse.PrescribeFreqRange(w, "core")
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Fatalf("range inverted: %v > %v", lo, hi)
	}
	if hi < 0.3 || lo > 1.2 {
		t.Errorf("prescribed range [%v, %v] implausible", lo, hi)
	}
}

func TestMinerSuggest(t *testing.T) {
	w := openMem(t)
	fillRuns(t, w)
	if next := warehouse.Suggest(w, "core", flow.Options{TargetFreqGHz: 0.4}); next.TargetFreqGHz < 0.4 {
		t.Errorf("with met runs at 0.5 and positive slack, suggestion %v should not regress", next.TargetFreqGHz)
	}
	if same := warehouse.Suggest(w, "nope", flow.Options{TargetFreqGHz: 0.4}); same.TargetFreqGHz != 0.4 {
		t.Error("unknown design should leave options unchanged")
	}
}

func TestMinerSuggestBacksOffWhenNothingMet(t *testing.T) {
	w := openMem(t)
	appendRun(t, w, "c", 0, "hard", 1, 1.0, map[string]map[string]float64{
		"sta": {"wns": -200, "maxfreq": 0.5}, "droute": {"drvs": 5000},
	})
	if next := warehouse.Suggest(w, "hard", flow.Options{TargetFreqGHz: 1.0}); next.TargetFreqGHz >= 1.0 {
		t.Errorf("all runs failed; suggestion %v should back off", next.TargetFreqGHz)
	}
}

// TestStoreJSONRoundTrip: records are JSON in the warehouse's WAL; a
// reopened warehouse holds the same records and mines the same answer.
func TestStoreJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := warehouse.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillRuns(t, w)
	want := w.Select(warehouse.Query{})
	a, _ := warehouse.BestTargetFreq(w, "core")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := warehouse.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := loaded.Select(warehouse.Query{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened warehouse holds %d records, want the %d written", len(got), len(want))
	}
	if b, _ := warehouse.BestTargetFreq(loaded, "core"); a != b {
		t.Fatalf("mining diverged after reopen: %v vs %v", a, b)
	}
}

// TestEndToEndOverHTTP: a flow run's stage records reach the warehouse
// on the METRICS server through Emitter → Client, come back over the
// query API, and mine into one run.
func TestEndToEndOverHTTP(t *testing.T) {
	wh, root := serveWarehouse(t)
	opts := flow.Options{TargetFreqGHz: 0.35, Seed: 1}
	emit := warehouse.NewEmitter("run", "local", []string{opts.Key()}, warehouse.NewClient(root+"/warehouse"))
	design := netlist.Generate(cellib.Default14nm(), netlist.Tiny(1))
	flow.RunObserved(design, opts, emit)
	emit.Flush()
	if n := wh.Stats().Records; n != 6 {
		t.Fatalf("warehouse stored %d records, want 6 stages", n)
	}

	// Remote query path.
	resp, err := http.Get(root + "/warehouse/v1/records?stage=droute")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []warehouse.Record
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("queried %d droute records", len(recs))
	}
	if len(recs[0].Scalars) == 0 {
		t.Error("droute scalars lost over the wire")
	}

	// Mining on the served warehouse works end to end.
	if sums := warehouse.Summarize(wh, design.Name); len(sums) != 1 || sums[0].FreqGHz != 0.35 {
		t.Errorf("summaries %+v, want the one run at 0.35 GHz", sums)
	}
}

// postRecords POSTs body to the warehouse ingest endpoint and returns
// the status.
func postRecords(t *testing.T, root, body string) int {
	t.Helper()
	resp, err := http.Post(root+"/warehouse/v1/records", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

func TestServerRejectsGarbage(t *testing.T) {
	wh, root := serveWarehouse(t)
	// Valid transmit.
	if err := warehouse.NewClient(root + "/warehouse").Append(warehouse.Record{Campaign: "c", Design: "x", Stage: "synth"}); err != nil {
		t.Fatal(err)
	}
	// Garbage post.
	before := metrics.Get("warehouse.rejected")
	if code := postRecords(t, root, ""); code != http.StatusBadRequest {
		t.Errorf("empty body: got %d, want 400", code)
	}
	if metrics.Get("warehouse.rejected") == before {
		t.Error("rejection not counted")
	}
	if n := wh.Stats().Records; n != 1 {
		t.Errorf("warehouse holds %d records, want the 1 valid one", n)
	}
}

// TestServerRejectedRecordCounted: a rejected ingest shows identically
// in the registry, /stats and /metrics.
func TestServerRejectedRecordCounted(t *testing.T) {
	_, root := serveWarehouse(t)
	want := metrics.Get("warehouse.rejected") + 1
	if code := postRecords(t, root, "[{not a record"); code != http.StatusBadRequest {
		t.Fatalf("garbage record: got %d, want 400", code)
	}
	if got := metrics.Get("warehouse.rejected"); got != want {
		t.Fatalf("registry counter = %d, want %d", got, want)
	}
	line := fmt.Sprintf("warehouse.rejected %d\n", want)
	for _, path := range []string{"/stats", "/metrics"} {
		resp, err := http.Get(root + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		if !strings.Contains(string(body), line) {
			t.Errorf("%s does not expose the rejected counter:\n%s", path, body)
		}
	}
}
