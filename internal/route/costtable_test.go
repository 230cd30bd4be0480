package route

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// expCostL is costL as it was before the table: every edge priced with
// the exponential itself, in the same edge order.
func expCostL(r *router, x1, y1, x2, y2 int) float64 {
	price := func(d float64) float64 {
		return 1 + math.Exp(6*(d/r.tracks-1))
	}
	var cost float64
	for x := min(x1, x2); x < max(x1, x2); x++ {
		cost += price(r.demand[r.hIdx(x, y1)])
	}
	for y := min(y1, y2); y < max(y1, y2); y++ {
		cost += price(r.demand[r.vIdx(x2, y)])
	}
	return cost
}

// TestCostTableMatchesExp prices 10 000 random pin pairs, both Ls each,
// on randomly loaded demand maps through the table and through the
// exponential and requires the same bits — on empty edges, on demand far
// past the table's end, and at d = 1, the first entry a claimed track
// reaches.
func TestCostTableMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := placed(1, netlist.Tiny(1))
	var pastTable, atOne, empty int
	for _, tracks := range []float64{1, 3.5, 28, 400} {
		r := newRouter(n, GlobalOptions{GridDim: 24, TracksPerEdge: tracks})
		for e := range r.demand {
			switch rng.Intn(4) {
			case 0: // stays empty
			case 1:
				r.demand[e] = float64(rng.Intn(3))
			case 2:
				r.demand[e] = float64(rng.Intn(int(2*tracks + 2)))
			case 3:
				r.demand[e] = float64(rng.Intn(3 * costTableMax))
			}
		}
		for i := 0; i < 2500; i++ {
			sx, sy, tx, ty := rng.Intn(r.dim), rng.Intn(r.dim), rng.Intn(r.dim), rng.Intn(r.dim)
			for x := min(sx, tx); x < max(sx, tx); x++ {
				switch d := r.demand[r.hIdx(x, sy)]; {
				case d == 0:
					empty++
				case d == 1:
					atOne++
				case int(d) >= len(r.cost):
					pastTable++
				}
			}
			for _, l := range [2][4]int{{sx, sy, tx, ty}, {tx, ty, sx, sy}} {
				got, want := r.costL(l[0], l[1], l[2], l[3]), expCostL(r, l[0], l[1], l[2], l[3])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("tracks %v, L %v: table %v (%x), exp %v (%x)",
						tracks, l, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			// Claim one of the Ls, as the router does after pricing both.
			if rng.Intn(2) == 0 {
				r.stampL(sx, sy, tx, ty)
			} else {
				r.stampL(tx, ty, sx, sy)
			}
		}
	}
	if pastTable == 0 || atOne == 0 || empty == 0 {
		t.Fatalf("edges priced: %d past the table, %d at d=1, %d empty; want all three", pastTable, atOne, empty)
	}
}

// TestPricedDemandIsIntegral watches every L the router prices on real
// placements: each demand read is a non-negative whole number, which is
// what lets congCost index a table by it.
func TestPricedDemandIsIntegral(t *testing.T) {
	var priced, loaded int
	pricedHook = func(r *router, x1, y1, x2, y2 int) {
		check := func(d float64) {
			if d != math.Trunc(d) || d < 0 {
				t.Errorf("priced demand %v", d)
			}
			if d > 0 {
				loaded++
			}
		}
		for x := min(x1, x2); x < max(x1, x2); x++ {
			check(r.demand[r.hIdx(x, y1)])
		}
		for y := min(y1, y2); y < max(y1, y2); y++ {
			check(r.demand[r.vIdx(x2, y)])
		}
		priced++
	}
	defer func() { pricedHook = nil }()
	for _, spec := range []netlist.Spec{netlist.Tiny(2), netlist.Artificial(3)} {
		n := placed(2, spec)
		for _, opts := range []GlobalOptions{
			{Seed: 3},
			{Seed: 3, TracksPerEdge: 2},
			{Seed: 3, GridDim: 32, TracksPerEdge: 3},
		} {
			GlobalRoute(n, opts)
		}
	}
	if priced == 0 || loaded == 0 {
		t.Fatalf("%d Ls priced, %d loaded edges read; want both", priced, loaded)
	}
}
