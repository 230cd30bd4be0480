package route

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
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
	// QoR metrics for BenchmarkRouteGate. The sharded router is
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

// BenchmarkRouteGate: the region-sharded router with every region in
// flight must be at least 2x faster than the same router on one worker,
// min-of-3 each, with a byte-identical congestion picture and detail-route
// DRV checksum.
func BenchmarkRouteGate(b *testing.B) {
	r := benchRuns(b, "2x", 3, "BenchmarkRouteSerial", "BenchmarkRouteSharded")
	ms, mp := r[0], r[1]
	speedup := ms["ns/op"] / mp["ns/op"]
	b.Logf("route_speedup_x=%.2f (1 worker %.1f ms, sharded %.1f ms)", speedup, ms["ns/op"]/1e6, mp["ns/op"]/1e6)
	for _, m := range []string{"wirelength", "overflow", "drv_sum"} {
		if ms[m] != mp[m] {
			b.Errorf("route serial/sharded QoR mismatch: %s %v vs %v", m, ms[m], mp[m])
		}
	}
	if speedup < 2 {
		b.Errorf("route speedup %.2fx below the 2x bound", speedup)
	}
}
