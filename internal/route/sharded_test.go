package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/place"
)

func sameGlobal(a, b *GlobalResult) bool {
	if a.GridDim != b.GridDim || a.Capacity != b.Capacity ||
		a.WirelengthUm != b.WirelengthUm || a.OverflowTotal != b.OverflowTotal ||
		a.OverflowPeak != b.OverflowPeak || a.HotspotFrac != b.HotspotFrac ||
		len(a.Demand) != len(b.Demand) {
		return false
	}
	for i := range a.Demand {
		if a.Demand[i] != b.Demand[i] {
			return false
		}
	}
	return true
}

// TestShardedRouteWorkerInvariant is the acceptance-criteria table
// test: for a fixed tile count the region-sharded router must produce a
// bit-identical GlobalResult — demand map, wirelength, overflow — at
// every worker count, across presets and grid sizes.
func TestShardedRouteWorkerInvariant(t *testing.T) {
	cases := []struct {
		name string
		spec netlist.Spec
		opts GlobalOptions
	}{
		{"tiny/2x2", netlist.Tiny(3), GlobalOptions{Seed: 5, Tiles: 2}},
		{"tiny/dim32", netlist.Tiny(4), GlobalOptions{Seed: 6, GridDim: 32, Tiles: 4}},
		{"artificial/2x2", netlist.Artificial(5), GlobalOptions{Seed: 7, Tiles: 2}},
		{"artificial/4x4", netlist.Artificial(6), GlobalOptions{Seed: 8, GridDim: 40, Tiles: 4}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			n := placed(tc.opts.Seed, tc.spec)
			o := tc.opts
			o.Workers = 1
			ref := GlobalRoute(n, o)
			for _, w := range []int{2, 4, 8} {
				o.Workers = w
				got := GlobalRoute(n, o)
				if !sameGlobal(ref, got) {
					t.Fatalf("workers=%d: GlobalResult diverged from workers=1 reference", w)
				}
			}
		})
	}
}

// TestShardedRouteQuality: the sharded net order differs from the
// serial one, so demand maps differ — but the congestion picture must
// stay equivalent: the same wirelength and total demand on every
// placement, and comparable overflow. Per placement the overflow ratio
// is a coin flip (0.2x to 2x over twelve seeds), so the bound holds on
// the sum over six.
func TestShardedRouteQuality(t *testing.T) {
	var serialOverflow, shardOverflow float64
	const seeds = 6
	for seed := int64(1); seed <= seeds; seed++ {
		n := placed(seed, netlist.Artificial(seed))
		serial := GlobalRoute(n, GlobalOptions{Seed: seed})
		shard := GlobalRoute(n, GlobalOptions{Seed: seed, Tiles: 2})
		// Wirelength is the sum of manhattan net lengths — independent of
		// route order — but the sharded router merges per-tile partial
		// sums, so float association differs by ulps from the serial
		// net-order sum.
		if d := math.Abs(shard.WirelengthUm - serial.WirelengthUm); d > 1e-9*serial.WirelengthUm {
			t.Fatalf("seed %d: sharded wirelength %v != serial %v (|d|=%g)", seed, shard.WirelengthUm, serial.WirelengthUm, d)
		}
		var serialTotal, shardTotal float64
		for i := range serial.Demand {
			serialTotal += serial.Demand[i]
		}
		for i := range shard.Demand {
			shardTotal += shard.Demand[i]
		}
		if shardTotal != serialTotal {
			t.Fatalf("seed %d: sharded total demand %v != serial %v (demand must be conserved)", seed, shardTotal, serialTotal)
		}
		serialOverflow += serial.OverflowTotal
		shardOverflow += shard.OverflowTotal
	}
	if shardOverflow > serialOverflow*1.5+seeds {
		t.Errorf("sharded overflow %v over %d placements much worse than serial %v", shardOverflow, seeds, serialOverflow)
	}
}

// TestShardedRouteRandomizedDifferential fuzzes the worker invariance:
// random spec, grid, tile count — Workers=1 and a random worker count
// must agree bit-for-bit.
func TestShardedRouteRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		spec := netlist.Spec{
			Name: "fuzz", Seed: rng.Int63n(1 << 20),
			NumComb: 80 + rng.Intn(160), NumFFs: 10 + rng.Intn(20),
			Levels: 4 + rng.Intn(6), Locality: 0.4 + 0.5*rng.Float64(),
			NumPIs: 4 + rng.Intn(8), ClockPeriodPs: 1500,
		}
		n := netlist.Generate(cellib.Default14nm(), spec)
		place.Place(n, place.Options{Seed: rng.Int63n(1 << 20), Moves: 20 * n.NumCells()})
		opts := GlobalOptions{
			Seed:    rng.Int63n(1 << 20),
			GridDim: 16 + 8*rng.Intn(4),
			Tiles:   2 + rng.Intn(3),
			Workers: 1,
		}
		ref := GlobalRoute(n, opts)
		opts.Workers = 2 + rng.Intn(7)
		got := GlobalRoute(n, opts)
		if !sameGlobal(ref, got) {
			t.Fatalf("trial %d (spec seed %d, opts %+v): sharded result diverged across worker counts",
				trial, spec.Seed, opts)
		}
	}
}

// TestShardedRouteDeterministic: same seed, same tiles, two fresh calls
// on the same placement — bit-identical results (the router must not
// mutate shared state between calls).
func TestShardedRouteDeterministic(t *testing.T) {
	n := placed(12, netlist.Tiny(12))
	a := GlobalRoute(n, GlobalOptions{Seed: 4, Tiles: 2, Workers: 3})
	b := GlobalRoute(n, GlobalOptions{Seed: 4, Tiles: 2, Workers: 5})
	if !sameGlobal(a, b) {
		t.Fatal("repeated sharded route on the same placement diverged")
	}
}
