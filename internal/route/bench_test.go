package route

import (
	"sync"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/place"
)

// benchPlaced is the shared routing benchmark workload: a large,
// high-locality placed design so most nets fall inside a single region
// of the sharded router.
var benchPlaced = sync.OnceValue(func() *netlist.Netlist {
	n := netlist.Generate(cellib.Default14nm(), netlist.Spec{
		Name: "route-bench", Seed: 1,
		NumComb: 6000, NumFFs: 600, Levels: 12,
		Locality: 0.85, NumPIs: 48, ClockPeriodPs: 1500,
	})
	place.Place(n, place.Options{Seed: 7, Moves: 20 * n.NumCells(), Workers: 8})
	return n
})

func benchmarkRoute(b *testing.B, workers int) {
	n := benchPlaced()
	opts := GlobalOptions{Seed: 7, GridDim: 64, Tiles: 4, Workers: workers}
	var g *GlobalResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g = GlobalRoute(n, opts)
	}
	b.StopTimer()
	// QoR metrics for the check.sh gate. The sharded router is
	// worker-invariant, so serial (Workers=1) and sharded must report
	// byte-identical values — including the downstream detail-route DRV
	// series, folded into one order-weighted checksum.
	d := DetailRoute(g, DetailOptions{Seed: 7})
	sum := 0
	for i, v := range d.DRVs {
		sum += v * (i + 1)
	}
	b.ReportMetric(g.WirelengthUm, "wirelength")
	b.ReportMetric(g.OverflowTotal, "overflow")
	b.ReportMetric(float64(sum), "drv_sum")
}

// BenchmarkRouteSerial is the reference: the region-sharded router with
// every region routed by the caller alone — identical tile partition
// and rng streams, zero concurrency.
func BenchmarkRouteSerial(b *testing.B) { benchmarkRoute(b, 1) }

// BenchmarkRouteSharded routes regions concurrently (Workers=0 = one
// crew member per region, at most GOMAXPROCS).
func BenchmarkRouteSharded(b *testing.B) { benchmarkRoute(b, 0) }
