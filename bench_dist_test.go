// Distributed-campaign benchmarks: the identical pulpino-proxy sweep
// run through the full coordinator/worker/store service over loopback
// HTTP at one worker node (the single-host reference deployment) and at
// four. Every point is unique and every iteration starts a fresh
// in-memory store, so nothing is served from memo state — the ratio is
// pure node scaling, with the real HTTP dispatch, store read and put,
// and gob encode/decode costs included. Both variants report the same
// qor_hash (byte-identity is the service's contract);
// BenchmarkDistGate holds four nodes to >= 1.8x one node's throughput.
package repro

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"
)

// distBenchDesign generates the pulpino proxy once for both benchmarks:
// netlist generation is identical deployment-independent setup, and
// flows never mutate their input design, so paying it inside the timed
// loop would only dilute the scaling ratio under test.
var distBenchDesign = sync.OnceValue(func() *Design {
	return NewDesign(DefaultLibrary(), PulpinoProxy(1))
})

// distBenchSweep is the pulpino-proxy campaign shape: 3 frequencies x 8
// seeds = 24 points, enough that the last few points, which leave some
// of 4 nodes' slots idle at the tail, stay well under the 1.8x gate's
// slack.
func distBenchSweep() SweepConfig {
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return SweepConfig{
		Design:  distBenchDesign(),
		Base:    FlowOptions{SynthEffort: 2},
		Freqs:   []float64{0.4, 0.5, 0.6},
		Seeds:   seeds,
		Workers: 2, // per-node licenses: the 1-node run is 2-way, the 4-node run 8-way
	}
}

// sweepQoRHash folds every printed QoR field of every point into 32
// bits (32 so the value survives the float64 benchmark metric channel
// exactly). Equal hashes mean the two deployments produced identical
// point tables.
func sweepQoRHash(res SweepResult) float64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf) //nolint:errcheck // fnv never fails
	}
	for _, p := range res.Points {
		put(math.Float64bits(p.FreqGHz))
		put(uint64(p.Seed))
		if p.Met {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(p.WNSPs))
		put(math.Float64bits(p.AreaUm2))
		put(math.Float64bits(p.PowerNW))
		put(math.Float64bits(p.MaxFreqGHz))
	}
	return float64(h.Sum64() & 0xffffffff)
}

func runDistBench(b *testing.B, nodes int) {
	var hash float64
	for i := 0; i < b.N; i++ {
		res, err := DistSweep(DistSweepConfig{SweepConfig: distBenchSweep(), Nodes: nodes})
		if err != nil {
			b.Fatal(err)
		}
		hash = sweepQoRHash(res)
	}
	b.ReportMetric(hash, "qor_hash")
}

func BenchmarkDistSweep1(b *testing.B) { runDistBench(b, 1) }
func BenchmarkDistSweep4(b *testing.B) { runDistBench(b, 4) }

// BenchmarkDistGate: four nodes must clear 1.8x one node's throughput,
// min-of-3 each, at an identical qor_hash.
func BenchmarkDistGate(b *testing.B) {
	r := benchRuns(b, "1x", 3, "BenchmarkDistSweep1", "BenchmarkDistSweep4")
	speedup := r[0]["ns/op"] / r[1]["ns/op"]
	b.Logf("dist_speedup_x=%.2f (1 node %.1f ms, 4 nodes %.1f ms)", speedup, r[0]["ns/op"]/1e6, r[1]["ns/op"]/1e6)
	if r[0]["qor_hash"] != r[1]["qor_hash"] {
		b.Errorf("1-node/4-node QoR mismatch: qor_hash %.0f vs %.0f", r[0]["qor_hash"], r[1]["qor_hash"])
	}
	if speedup < 1.8 {
		b.Errorf("dist speedup %.2fx below the 1.8x bound", speedup)
	}
}
