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

func benchmarkPlace(b *testing.B, workers int) {
	n := benchNetlist()
	opts := Options{Seed: 7, Moves: 30 * n.NumCells(), Workers: workers, Batch: 4096}
	var res Result
	var boundDecided int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, boundDecided = placeTally(n, opts)
	}
	b.ReportMetric(float64(res.MovesTried)*float64(b.N)/b.Elapsed().Seconds(), "moves/s")
	// Share of tried proposals the lower bound rejected without a pin scan.
	b.ReportMetric(float64(boundDecided)/float64(res.MovesTried), "bound_decided/move")
	// QoR metrics for the check.sh gate: the speculative engine is
	// worker-invariant, so serial (Workers=1) and parallel must report
	// byte-identical values here.
	b.ReportMetric(res.HPWLUm, "hpwl")
	b.ReportMetric(float64(res.MovesAccepted), "accepted")
	b.ReportMetric(float64(res.MovesConflicted), "conflicted")
	// Speculation efficiency of the adaptive batch policy: committed
	// work per discarded speculation, and where the batch settled.
	conf := res.MovesConflicted
	if conf == 0 {
		conf = 1
	}
	b.ReportMetric(float64(res.MovesAccepted)/float64(conf), "accept_per_conflict")
	b.ReportMetric(float64(res.BatchFinal), "batch_final")
}

// BenchmarkPlaceAnneal is the serial baseline: the commit-every-move
// annealer (Workers == 0) that flows run by default.
func BenchmarkPlaceAnneal(b *testing.B) { benchmarkPlace(b, 0) }

// BenchmarkPlaceSerial is the protocol overhead at one worker: the
// speculative engine with a crew of one — the identical batch/commit
// protocol as BenchmarkPlaceParallel, zero concurrency. (The name stays:
// the check.sh bench gate matches on it.)
func BenchmarkPlaceSerial(b *testing.B) { benchmarkPlace(b, 1) }

// BenchmarkPlaceParallel runs the same protocol on a 20-worker gang.
func BenchmarkPlaceParallel(b *testing.B) { benchmarkPlace(b, 20) }
