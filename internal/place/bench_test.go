package place

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/netlist"
)

// benchNetlist is the shared placement benchmark workload: a large,
// high-locality design where the annealer's per-move evaluation cost
// dominates. Place re-seeds its own grid from Options.Seed, so reusing
// one netlist across iterations and benchmarks is safe.
var benchNetlist = sync.OnceValue(func() *netlist.Netlist {
	return netlist.Generate(lib(), netlist.Spec{
		Name: "place-bench", Seed: 1,
		NumComb: 6000, NumFFs: 600, Levels: 12,
		Locality: 0.85, NumPIs: 48, ClockPeriodPs: 1500,
	})
})

func benchmarkPlace(b *testing.B, workers int) {
	n := benchNetlist()
	opts := Options{Seed: 7, Moves: 30 * n.NumCells(), Workers: workers}
	var res Result
	var pinsScanned int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, pinsScanned = placeTally(n, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(res.MovesTried)*float64(b.N)/b.Elapsed().Seconds(), "moves/s")
	// Pin positions read per tried proposal: only commits (and the territory
	// engine's per-epoch rescan) visit pins, evaluating a move never does.
	b.ReportMetric(float64(pinsScanned)/float64(res.MovesTried), "pins_scanned/move")
	// QoR metrics for the check.sh gate.
	b.ReportMetric(res.HPWLUm, "hpwl")
	b.ReportMetric(float64(res.MovesAccepted), "accepted")
	if workers > 1 {
		// Worker invariance, for the same gate: the same anneal on a crew
		// of one must land on the same bits.
		opts.Workers = 1
		one, _ := placeTally(n, opts)
		b.ReportMetric(one.HPWLUm, "hpwl_w1")
		b.ReportMetric(float64(one.MovesAccepted), "accepted_w1")
	}
}

// BenchmarkPlaceAnneal is the serial baseline: the commit-every-move
// annealer (Workers == 0) that flows run by default.
func BenchmarkPlaceAnneal(b *testing.B) { benchmarkPlace(b, 0) }

// BenchmarkPlaceParallel is the territory engine with one crew member per
// processor (two at least, so hpwl_w1 compares two different crews).
func BenchmarkPlaceParallel(b *testing.B) { benchmarkPlace(b, max(2, runtime.GOMAXPROCS(0))) }
