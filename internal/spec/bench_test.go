package spec

import (
	"context"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/synth"
)

// benchDesign is the pulpino-proxy workload the speculation gates run
// on: large enough that every stage has real weight, shared across
// iterations (flow runs never mutate their input design).
var benchDesign = sync.OnceValue(func() *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.PulpinoProxy(1))
})

// sweepPoints is the downstream-knob sweep speculation exists for: the
// routing iteration budget varies, everything upstream is pinned, so
// after the first (cold) point every upstream artifact is re-derivable
// from memory.
func sweepPoints(speculate bool) []campaign.Point {
	d := benchDesign()
	key := campaign.KeyFor(d)
	var pts []campaign.Point
	for _, iters := range []int{8, 12, 16, 20} {
		o := flow.Options{TargetFreqGHz: 0.5, Seed: 5, RouteIters: iters}
		if speculate {
			o.Speculate = flow.SpecConfig{Enabled: true}
		}
		pts = append(pts, campaign.NewPoint(d, key, o))
	}
	return pts
}

// seedPoints is the adversarial sweep for the all-miss gate: every
// point differs upstream (seed), so forced predictions never commit.
func seedPoints(speculate bool) []campaign.Point {
	d := benchDesign()
	key := campaign.KeyFor(d)
	var pts []campaign.Point
	for seed := int64(1); seed <= 4; seed++ {
		o := flow.Options{TargetFreqGHz: 0.5, Seed: seed, RouteIters: 12}
		if speculate {
			o.Speculate = flow.SpecConfig{Enabled: true}
		}
		pts = append(pts, campaign.NewPoint(d, key, o))
	}
	return pts
}

// qorHash folds every result's implemented-netlist fingerprint and
// headline QoR into one checksum — the equal-QoR side of the bench
// gates. Reported as a metric, so check.sh can demand byte-identical
// results between the speculative and reference sweeps.
func qorHash(results []*flow.Result) float64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf) //nolint:errcheck // fnv never fails
	}
	for _, r := range results {
		put(r.Netlist.Fingerprint())
		put(math.Float64bits(r.AreaUm2))
		put(math.Float64bits(r.WNSPs))
		put(math.Float64bits(r.Place.HPWLUm))
		put(uint64(r.Route.Final))
	}
	// Folded to 32 bits so the value survives the float64 benchmark
	// metric channel exactly.
	return float64(h.Sum64() & 0xffffffff)
}

// runSweepBench runs one campaign per iteration at a single license
// (Workers: 1), so any wall-clock the speculative variant reclaims
// comes from stage overlap alone, never from running points
// concurrently.
func runSweepBench(b *testing.B, pts []campaign.Point, mkOracle func() flow.SpecOracle) {
	var hash float64
	for i := 0; i < b.N; i++ {
		cfg := campaign.Config{Workers: 1, Cache: campaign.NewCache(0)}
		if mkOracle != nil {
			cfg.Oracle = mkOracle()
		}
		eng := campaign.New(cfg)
		res, err := eng.Run(context.Background(), pts)
		if err != nil {
			b.Fatal(err)
		}
		hash = qorHash(res)
	}
	b.ReportMetric(hash, "qor_hash")
}

// BenchmarkSpecSweepBase is the reference: the downstream sweep without
// speculation.
func BenchmarkSpecSweepBase(b *testing.B) {
	pts := sweepPoints(false)
	b.ResetTimer()
	runSweepBench(b, pts, nil)
}

// BenchmarkSpecSweepOverlap runs the identical sweep with speculative
// stage overlap on a fresh artifact memory: point 1 is cold, points 2-4
// hit the exact tier and adopt place/cts/groute/droute from
// speculation. The check.sh gate demands >= 20% wall-clock reclaimed at
// an identical qor_hash.
func BenchmarkSpecSweepOverlap(b *testing.B) {
	pts := sweepPoints(true)
	b.ResetTimer()
	runSweepBench(b, pts, func() flow.SpecOracle {
		return NewMemory(Options{})
	})
}

// wrongOracle serves stale artifacts captured from a different option
// point, so every prediction launches and every judgment misses — the
// worst case the <= 5% overhead gate prices.
type wrongOracle struct {
	synth flow.SynthPrediction
	place flow.PlacePrediction
}

func (w *wrongOracle) Version() string { return "bench-wrong/1" }
func (w *wrongOracle) PredictSynth(uint64, flow.Options) (flow.SynthPrediction, bool) {
	return w.synth, true
}
func (w *wrongOracle) PredictPlace(uint64, flow.Options) (flow.PlacePrediction, bool) {
	return w.place, true
}
func (w *wrongOracle) ObserveSynth(uint64, flow.Options, synth.Result) {}
func (w *wrongOracle) ObservePlace(uint64, flow.Options, place.Result, *netlist.Netlist, flow.PlaceProvenance) {
}

// staleOracle builds the wrongOracle from a real run at a frequency no
// sweep point uses: genuine artifacts, guaranteed fingerprint misses.
var staleOracle = sync.OnceValue(func() *wrongOracle {
	cap0 := &capturingOracle{}
	opts := flow.Options{TargetFreqGHz: 0.8, Seed: 77, RouteIters: 12}
	if _, err := flow.RunCfg(context.Background(), benchDesign(), opts, flow.RunConfig{Oracle: cap0}); err != nil {
		panic(err)
	}
	sp := flow.SynthPrediction{Synth: cap0.synth, ID: "bench/stale/s"}
	sp.Synth.Netlist = cap0.synthArt
	// The stale memo keeps its true provenance: the sweep's seeds differ
	// from the capture's, so neither the redundancy skip nor the memo
	// commit applies and the full mispredict path (launch, judge, reap)
	// is what the overhead gate prices.
	return &wrongOracle{
		synth: sp,
		place: flow.PlacePrediction{Place: cap0.place, Netlist: cap0.placeArt, Prov: cap0.prov, ID: "bench/stale/p"},
	}
})

// BenchmarkSpecMissBase is the reference for the overhead gate: the
// seed sweep without speculation.
func BenchmarkSpecMissBase(b *testing.B) {
	pts := seedPoints(false)
	b.ResetTimer()
	runSweepBench(b, pts, nil)
}

// BenchmarkSpecMissSpec runs the seed sweep with an oracle that is
// always wrong: every speculative chain launches, burns, and is
// discarded. The gate bounds the wall-clock cost of pure misprediction
// at 5% over the reference, at an identical qor_hash.
func BenchmarkSpecMissSpec(b *testing.B) {
	pts := seedPoints(true)
	stale := staleOracle()
	b.ResetTimer()
	runSweepBench(b, pts, func() flow.SpecOracle { return stale })
}
