package place

import (
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

// BenchmarkPlaceAnneal places the benchmark design at 30 steps a cell:
// the global step, then the anneal flows run.
func BenchmarkPlaceAnneal(b *testing.B) {
	n := benchNetlist()
	opts := Options{Seed: 7, Moves: 30 * n.NumCells()}
	var res Result
	var pinsScanned int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, pinsScanned = placeTally(n, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(res.MovesTried)*float64(b.N)/b.Elapsed().Seconds(), "moves/s")
	// Pin positions read per tried proposal: only commits visit pins,
	// evaluating a move never does.
	b.ReportMetric(float64(pinsScanned)/float64(res.MovesTried), "pins_scanned/move")
	b.ReportMetric(res.HPWLUm, "hpwl")
	b.ReportMetric(float64(res.MovesAccepted), "accepted")
}
