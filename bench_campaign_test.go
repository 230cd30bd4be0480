// Campaign-engine benchmarks: the engine with memoization on three
// studies revisiting the same (frequency x seed) option points — the
// repeated-sampling pattern of the Fig. 3 / Fig. 7 harnesses — untraced,
// traced and warehoused. All three report the same qor_area_sum and
// cache hit rate. BenchmarkCampaignOverheadGate holds the traced and
// warehoused variants to the untraced one.
package repro

import (
	"context"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/trace"
	"repro/internal/warehouse"
)

// campaignStudies is how many times the benchmark workload revisits the
// same option points (distinct studies sharing a sweep).
const campaignStudies = 3

// hitRateOf is hits / (hits + misses) of one coherent snapshot.
func hitRateOf(st campaign.CacheStats) float64 {
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

func campaignBenchPoints(design *netlist.Netlist, designKey string) []campaign.Point {
	var pts []campaign.Point
	for f := 0; f < 2; f++ {
		for s := 0; s < 4; s++ {
			pts = append(pts, campaign.NewPoint(design, designKey, flow.Options{
				TargetFreqGHz: 0.35 + 0.15*float64(f),
				Seed:          int64(1000*f + s),
			}))
		}
	}
	return pts
}

func BenchmarkCampaignParallel(b *testing.B) {
	design := NewDesign(DefaultLibrary(), TinyDesign(1))
	pts := campaignBenchPoints(design, campaign.KeyFor(design))
	var area, hitRate float64
	for i := 0; i < b.N; i++ {
		// A fresh cache per iteration: the first study pays every miss,
		// the rest ride the memo — no warm state leaks across b.N.
		cache := campaign.NewCache(0)
		eng := campaign.New(campaign.Config{Cache: cache})
		area = 0
		for study := 0; study < campaignStudies; study++ {
			results, err := eng.Run(context.Background(), pts)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				area += r.AreaUm2
			}
		}
		hitRate = hitRateOf(cache.Stats())
	}
	b.ReportMetric(area, "qor_area_sum")
	b.ReportMetric(hitRate, "cache_hit_rate")
}

// BenchmarkCampaignTraced is BenchmarkCampaignParallel with the tracer
// armed: every campaign point, flow stage, route iteration, and
// scheduler wait emits a span.
func BenchmarkCampaignTraced(b *testing.B) {
	design := NewDesign(DefaultLibrary(), TinyDesign(1))
	pts := campaignBenchPoints(design, campaign.KeyFor(design))
	var area, hitRate float64
	var spans int
	for i := 0; i < b.N; i++ {
		// Fresh tracer and cache per iteration, mirroring the parallel
		// benchmark's cold start; span retention is capped so b.N sets
		// memory, not span volume.
		tr := trace.New(1 << 14)
		trace.Enable(tr)
		cache := campaign.NewCache(0)
		eng := campaign.New(campaign.Config{Cache: cache})
		area = 0
		for study := 0; study < campaignStudies; study++ {
			results, err := eng.Run(context.Background(), pts)
			if err != nil {
				trace.Disable()
				b.Fatal(err)
			}
			for _, r := range results {
				area += r.AreaUm2
			}
		}
		hitRate = hitRateOf(cache.Stats())
		trace.Disable()
		kept, _ := tr.Snapshot()
		spans = len(kept)
	}
	b.ReportMetric(area, "qor_area_sum")
	b.ReportMetric(hitRate, "cache_hit_rate")
	b.ReportMetric(float64(spans), "spans")
}

// BenchmarkCampaignWarehoused is BenchmarkCampaignParallel with a
// warehouse emitter wired as the campaign observer: every flow stage of
// every point lands as a METRICS record in an in-memory warehouse.
func BenchmarkCampaignWarehoused(b *testing.B) {
	design := NewDesign(DefaultLibrary(), TinyDesign(1))
	pts := campaignBenchPoints(design, campaign.KeyFor(design))
	var area, hitRate float64
	var records int
	for i := 0; i < b.N; i++ {
		// Fresh warehouse and cache per iteration, mirroring the parallel
		// benchmark's cold start.
		wh, err := warehouse.Open("", journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		emit := warehouse.NewEmitter(campaign.ID(pts), "bench", PointKeys(pts), wh)
		cache := campaign.NewCache(0)
		eng := campaign.New(campaign.Config{Cache: cache, Observer: emit})
		area = 0
		for study := 0; study < campaignStudies; study++ {
			results, err := eng.Run(context.Background(), pts)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				area += r.AreaUm2
			}
		}
		emit.Flush()
		hitRate = hitRateOf(cache.Stats())
		records = wh.Stats().Records
		wh.Close()
	}
	b.ReportMetric(area, "qor_area_sum")
	b.ReportMetric(hitRate, "cache_hit_rate")
	b.ReportMetric(float64(records), "records")
}

// benchRuns runs the named benchmarks of this package in a child copy of
// the test binary at the -benchtime and -count their gate has always
// used (testing.Benchmark cannot run inside a running benchmark: both
// hold the testing package's one benchmark lock) and returns each one's
// metrics from its last result line, with ns/op the fastest of its runs.
func benchRuns(b *testing.B, benchtime string, count int, names ...string) []map[string]float64 {
	b.Helper()
	out, err := exec.Command(os.Args[0], "-test.run=^$", "-test.bench=^("+strings.Join(names, "|")+")$",
		"-test.benchtime="+benchtime, "-test.count="+strconv.Itoa(count)).CombinedOutput()
	if err != nil {
		b.Fatalf("%v\n%s", err, out)
	}
	runs := map[string]map[string]float64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		name, _, _ := strings.Cut(f[0], "-")
		m := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				b.Fatalf("%s: %v", line, err)
			}
			m[f[i+1]] = v
		}
		if prev, ok := runs[name]; ok {
			m["ns/op"] = min(m["ns/op"], prev["ns/op"])
		}
		runs[name] = m
	}
	res := make([]map[string]float64, len(names))
	for i, name := range names {
		if res[i] = runs[name]; res[i] == nil {
			b.Fatalf("no result line for %s in\n%s", name, out)
		}
	}
	return res
}

// BenchmarkCampaignOverheadGate holds full observability to the noise:
// the traced and the warehoused campaign may each be at most 5% slower
// than the untraced one, gated on the best of five interleaved pairs. A
// pair runs the three seconds apart, so the machine's drift lands on both
// sides of its ratio instead of on the overhead, and the best pair
// discounts a traced run that noise slowed; a genuine cost above 5% shows
// in every pair. Noise that slows an untraced run deflates its pair's
// ratio instead, so nothing else may load the host while the gate runs.
func BenchmarkCampaignOverheadGate(b *testing.B) {
	traced, warehoused := math.Inf(1), math.Inf(1)
	for i := 0; i < 5; i++ {
		r := benchRuns(b, "1s", 1, "BenchmarkCampaignParallel", "BenchmarkCampaignTraced", "BenchmarkCampaignWarehoused")
		base := r[0]["ns/op"]
		traced = min(traced, r[1]["ns/op"]/base)
		warehoused = min(warehoused, r[2]["ns/op"]/base)
	}
	tPct, wPct := (traced-1)*100, (warehoused-1)*100
	b.Logf("trace_overhead_pct=%.2f warehouse_overhead_pct=%.2f", tPct, wPct)
	if tPct > 5 {
		b.Errorf("tracing overhead %.2f%% above the 5%% bound", tPct)
	}
	if wPct > 5 {
		b.Errorf("warehouse overhead %.2f%% above the 5%% bound", wPct)
	}
}
