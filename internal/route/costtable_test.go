package route

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/netlist"
)

// expCostL is costL as it was before the table: every edge priced with
// the exponential itself, in the same edge order.
func expCostL(r *router, x1, y1, x2, y2, subRow, subCol int) float64 {
	price := func(d float64, own bool) float64 {
		if own {
			d--
		}
		return 1 + math.Exp(6*(d/r.opts.TracksPerEdge-1))
	}
	var cost float64
	for x := min(x1, x2); x < max(x1, x2); x++ {
		cost += price(r.demand[r.hIdx(x, y1)], y1 == subRow)
	}
	for y := min(y1, y2); y < max(y1, y2); y++ {
		cost += price(r.demand[r.vIdx(x2, y)], x2 == subCol)
	}
	return cost
}

// TestCostTableMatchesExp prices 10 000 random pin pairs, both Ls each,
// on randomly loaded demand maps through the table and through the
// exponential and requires the same bits — on empty edges, on demand far
// past the table's end, and with the pair's own committed track
// subtracted, which on a lightly loaded map prices d-1 at d = 1.
func TestCostTableMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := placed(1, netlist.Tiny(1))
	var pastTable, ownAtOne, empty int
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
			// The pair's current route, committed as the boundary
			// sweeps have it: H-first names row sy and column tx.
			subRow, subCol := -1, -1
			switch rng.Intn(3) {
			case 1:
				r.stampL(sx, sy, tx, ty, +1)
				subRow, subCol = sy, tx
			case 2:
				r.stampL(tx, ty, sx, sy, +1)
				subRow, subCol = ty, sx
			}
			for x := min(sx, tx); x < max(sx, tx); x++ {
				switch d := r.demand[r.hIdx(x, sy)]; {
				case d == 0:
					empty++
				case d == 1 && sy == subRow:
					ownAtOne++
				case int(d) >= len(r.cost):
					pastTable++
				}
			}
			for _, l := range [2][4]int{{sx, sy, tx, ty}, {tx, ty, sx, sy}} {
				got, want := r.costL(l[0], l[1], l[2], l[3], subRow, subCol), expCostL(r, l[0], l[1], l[2], l[3], subRow, subCol)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("tracks %v, L %v own (%d,%d): table %v (%x), exp %v (%x)",
						tracks, l, subRow, subCol, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
	if pastTable == 0 || ownAtOne == 0 || empty == 0 {
		t.Fatalf("edges priced: %d past the table, %d own track at d=1, %d empty; want all three", pastTable, ownAtOne, empty)
	}
}

// TestPricedDemandIsIntegral watches every L the serial and the tiled
// router price on real placements: each demand read is a whole number
// with the own track, where one is subtracted, present — which is what
// lets congCost index a table by it — and the table prices the L to the
// exponential's bits.
func TestPricedDemandIsIntegral(t *testing.T) {
	var priced, own atomic.Int64
	pricedHook = func(r *router, x1, y1, x2, y2, subRow, subCol int) {
		check := func(d float64, mine bool) {
			if d != math.Trunc(d) || d < 0 || mine && d < 1 {
				t.Errorf("priced demand %v (own track subtracted: %v)", d, mine)
			}
			if mine {
				own.Add(1)
			}
		}
		for x := min(x1, x2); x < max(x1, x2); x++ {
			check(r.demand[r.hIdx(x, y1)], y1 == subRow)
		}
		for y := min(y1, y2); y < max(y1, y2); y++ {
			check(r.demand[r.vIdx(x2, y)], x2 == subCol)
		}
		priced.Add(1)
	}
	defer func() { pricedHook = nil }()
	for _, spec := range []netlist.Spec{netlist.Tiny(2), netlist.Artificial(3)} {
		n := placed(2, spec)
		for _, opts := range []GlobalOptions{
			{Seed: 3},
			{Seed: 3, TracksPerEdge: 2},
			{Seed: 3, Tiles: 2, Workers: 2},
			{Seed: 3, Tiles: 4, GridDim: 32, TracksPerEdge: 3},
		} {
			GlobalRoute(n, opts)
		}
	}
	if priced.Load() == 0 || own.Load() == 0 {
		t.Fatalf("%d Ls priced, %d edges with the own track subtracted; want both", priced.Load(), own.Load())
	}
}
