package spec

import (
	"context"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
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
// headline QoR into one checksum — the equal-QoR side of
// BenchmarkSpecGate. Reported as a metric, so the gate can demand
// byte-identical results between the speculative and reference sweeps.
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
// speculation. BenchmarkSpecGate demands >= 20% wall-clock reclaimed at
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

// BenchmarkSpecGate, min-of-3 on both pairs. The sweep pair runs the
// downstream-knob sweep speculation exists for, at one campaign license,
// so all reclaimed wall-clock is stage overlap; it must reclaim >= 20% at
// an identical qor_hash. The miss pair runs an always-wrong oracle over
// an upstream-varying sweep — every chain launches, burns, and is reaped
// — and must cost <= 5% over its non-speculative reference, again at an
// identical qor_hash.
func BenchmarkSpecGate(b *testing.B) {
	r := benchRuns(b, "1x", 3, "BenchmarkSpecSweepBase", "BenchmarkSpecSweepOverlap", "BenchmarkSpecMissBase", "BenchmarkSpecMissSpec")
	msb, mso, mmb, mms := r[0], r[1], r[2], r[3]
	reclaimed := (1 - mso["ns/op"]/msb["ns/op"]) * 100
	overhead := (mms["ns/op"]/mmb["ns/op"] - 1) * 100
	b.Logf("spec_reclaimed_pct=%.1f spec_miss_overhead_pct=%.1f", reclaimed, overhead)
	if msb["qor_hash"] != mso["qor_hash"] {
		b.Errorf("speculative sweep QoR drift: qor_hash %.0f vs %.0f", msb["qor_hash"], mso["qor_hash"])
	}
	if mmb["qor_hash"] != mms["qor_hash"] {
		b.Errorf("all-miss speculation QoR drift: qor_hash %.0f vs %.0f", mmb["qor_hash"], mms["qor_hash"])
	}
	if reclaimed < 20 {
		b.Errorf("speculation reclaimed %.1f%% below the 20%% bound", reclaimed)
	}
	if overhead > 5 {
		b.Errorf("all-miss speculation overhead %.1f%% above the 5%% bound", overhead)
	}
}
