package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/place"
)

// The tests in this file are named for the region-sharded router, which
// is gone. GlobalOptions.Tiles, which selected it, is now ignored; they
// hold that it is, and the serial router's own bookkeeping.

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

// TestShardedRouteWorkerInvariant: at every tile count GlobalRoute
// returns the Tiles 0 result bit for bit — demand map, wirelength,
// overflow — across presets and grid sizes.
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
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			n := placed(tc.opts.Seed, tc.spec)
			serial := tc.opts
			serial.Tiles = 0
			if !sameGlobal(GlobalRoute(n, serial), GlobalRoute(n, tc.opts)) {
				t.Fatalf("Tiles %d: GlobalResult diverged from Tiles 0", tc.opts.Tiles)
			}
		})
	}
}

// TestShardedRouteQuality holds the router's bookkeeping on six
// placements: every routed pin pair claims exactly its manhattan length
// in tracks, whichever L it takes, and the wirelength is the sum of those
// lengths in um.
func TestShardedRouteQuality(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := placed(seed, netlist.Artificial(seed))
		opts := GlobalOptions{Seed: seed}
		g := GlobalRoute(n, opts)
		r := newRouter(n, opts.withDefaults())
		var tracks, wl float64
		for i := range n.Nets {
			net := &n.Nets[i]
			if net.IsClock || net.Driver < 0 {
				continue
			}
			sx, sy := r.toGrid(n.Insts[net.Driver].X, n.Insts[net.Driver].Y)
			for _, s := range net.Sinks {
				tx, ty := r.toGrid(n.Insts[s.Inst].X, n.Insts[s.Inst].Y)
				d := math.Abs(float64(sx-tx)) + math.Abs(float64(sy-ty))
				tracks += d
				wl += d * r.w / float64(r.dim)
			}
		}
		var demand float64
		for _, d := range g.Demand {
			demand += d
		}
		if demand != tracks || g.WirelengthUm != wl {
			t.Fatalf("seed %d: demand %v over %v pin-pair tracks, wirelength %v, want %v", seed, demand, tracks, g.WirelengthUm, wl)
		}
	}
}

// TestShardedRouteRandomizedDifferential fuzzes the same: random spec,
// grid and tile count, and Tiles 0 must agree bit for bit.
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
		}
		ref := opts
		ref.Tiles = 0
		if !sameGlobal(GlobalRoute(n, ref), GlobalRoute(n, opts)) {
			t.Fatalf("trial %d (spec seed %d, opts %+v): result diverged from Tiles 0", trial, spec.Seed, opts)
		}
	}
}

// TestShardedRouteDeterministic: same seed, two fresh calls on the same
// placement — bit-identical results (the router must not mutate shared
// state between calls).
func TestShardedRouteDeterministic(t *testing.T) {
	n := placed(12, netlist.Tiny(12))
	a := GlobalRoute(n, GlobalOptions{Seed: 4})
	b := GlobalRoute(n, GlobalOptions{Seed: 4})
	if !sameGlobal(a, b) {
		t.Fatal("repeated route on the same placement diverged")
	}
}
