// Campaign-engine benchmarks: the serial reference loop against the
// engine with memoization on an identical workload — three studies
// revisiting the same (frequency x seed) option points, the repeated-
// sampling pattern of the Fig. 3 / Fig. 7 harnesses. Both benchmarks
// report the same qor_area_sum, proving equal statistical output; the
// parallel variant additionally reports its cache hit rate.
//
// scripts/check.sh bench runs the pair and derives the speedup into
// BENCH_campaign.json.
package repro

import (
	"context"
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

func BenchmarkCampaignSerial(b *testing.B) {
	design := NewDesign(DefaultLibrary(), TinyDesign(1))
	pts := campaignBenchPoints(design, "")
	var area float64
	for i := 0; i < b.N; i++ {
		area = 0
		for study := 0; study < campaignStudies; study++ {
			for _, p := range pts {
				area += flow.Run(p.Design(), p.Options()).AreaUm2
			}
		}
	}
	b.ReportMetric(area, "qor_area_sum")
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
		hitRate = cache.HitRate()
	}
	b.ReportMetric(area, "qor_area_sum")
	b.ReportMetric(hitRate, "cache_hit_rate")
}

// BenchmarkCampaignTraced is BenchmarkCampaignParallel with the tracer
// armed: every campaign point, flow stage, route iteration, and
// scheduler wait emits a span. scripts/check.sh bench compares it
// against the untraced parallel run and gates the overhead at <=5% —
// the cost of full observability must stay in the noise.
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
		hitRate = cache.HitRate()
		trace.Disable()
		spans = tr.Len()
	}
	b.ReportMetric(area, "qor_area_sum")
	b.ReportMetric(hitRate, "cache_hit_rate")
	b.ReportMetric(float64(spans), "spans")
}

// BenchmarkCampaignWarehoused is BenchmarkCampaignParallel with a
// warehouse emitter wired as the campaign observer: every flow stage of
// every point lands as a METRICS record in an in-memory warehouse.
// scripts/check.sh bench gates the overhead against the untraced
// parallel run at <=5%, same bar as tracing.
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
		emit := warehouse.NewEmitter(campaign.ID(pts), "bench", pointKeys(pts), wh)
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
		hitRate = cache.HitRate()
		records = wh.Stats().Records
		wh.Close()
	}
	b.ReportMetric(area, "qor_area_sum")
	b.ReportMetric(hitRate, "cache_hit_rate")
	b.ReportMetric(float64(records), "records")
}
