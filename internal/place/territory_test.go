package place

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/netlist"
	"repro/internal/num"
	"repro/internal/trace"
)

// checkEpoch is the territory engine's per-epoch contract, checked from
// the engine's own cancellation poll (the top of every epoch) and once
// more after the last one: the whole kernel state is consistent, the
// rectangles of the epoch's territories partition the slots, and every
// instance is still in the rectangle — a stripe, one half of the stripe
// wrapped around the die edge or, after the partition switch, the region —
// where the epoch found it. before is slotOf as the epoch found it.
func checkEpoch(t *testing.T, p *placer, before []int) {
	t.Helper()
	checkKernelState(t, p)
	type piece struct{ lane, k int }
	none := piece{-1, -1}
	owner := make([]piece, len(p.g.instAt))
	for s := range owner {
		owner[s] = none
	}
	for lane, pieces := range p.terr {
		if len(pieces) < 1 || len(pieces) > 2 {
			t.Fatalf("territory %d has %d rectangles", lane, len(pieces))
		}
		for k, in := range pieces {
			for r := in.r0; r <= in.r1; r++ {
				for c := in.c0; c <= in.c1; c++ {
					s := r*p.g.cols + c
					if owner[s] != none {
						t.Fatalf("slot %d is in territories %v and %v", s, owner[s], piece{lane, k})
					}
					owner[s] = piece{lane, k}
				}
			}
		}
	}
	if s := slices.Index(owner, none); s >= 0 {
		t.Fatalf("slot %d is in no territory", s)
	}
	for inst, was := range before {
		if now := p.g.slotOf[inst]; owner[was] != owner[now] {
			t.Fatalf("inst %d left rectangle %v for %v (slot %d -> %d)", inst, owner[was], owner[now], was, now)
		}
	}
}

// scheduleEpochs is the epoch count of the engine's schedule over the
// moves/stepsPerProposal proposals of a budget: numCells/epochDiv
// proposals each, the last one what is left.
func scheduleEpochs(numCells, moves int) int {
	ceil := func(a, b int) int { return (a + b - 1) / b }
	return ceil(moves/stepsPerProposal, max(numCells/epochDiv, 1))
}

// TestTerritoryEpochInvariants runs the territory engine on a crew of two
// and holds every epoch to checkEpoch, flat and partitioned.
func TestTerritoryEpochInvariants(t *testing.T) {
	for _, spec := range []netlist.Spec{netlist.Tiny(2), netlist.Artificial(9), mid3k} {
		for _, layout := range layouts {
			t.Run(spec.Name+"/"+layout.name, func(t *testing.T) {
				n := netlist.Generate(lib(), spec)
				opts := layout.opts
				opts.Seed, opts.Workers, opts.Moves = 5, 2, 40*n.NumCells()
				var p *placer
				var rng *num.SplitMix
				var before []int
				epochs := 0
				check := func() {
					if p.terr != nil {
						checkEpoch(t, p, before)
						epochs++
					}
					before = slices.Clone(p.g.slotOf)
				}
				p, rng = newPlacer(probeCtx{context.Background(), check}, n, opts)
				p.anneal(rng)
				check()
				if want := scheduleEpochs(n.NumCells(), opts.Moves); epochs != want || epochs < 28 {
					t.Fatalf("%d epochs, want %d", epochs, want)
				}
				if k := layout.opts.Partitions; k > 1 && (!p.partitioned || len(p.terr) != k*k) {
					t.Fatalf("partitioned=%v with %d territories at the end, want the %d regions", p.partitioned, len(p.terr), k*k)
				}
				if p.res.MovesAccepted == 0 || p.res.MovesConflicted != 0 || p.res.BatchFinal != 0 {
					t.Fatalf("counters: %+v", p.res)
				}
			})
		}
	}
}

// moveSpans runs one anneal under a private tracer and returns its
// place.move spans' attributes, as integers.
func moveSpans(t *testing.T, n *netlist.Netlist, opts Options) (Result, []map[string]int) {
	t.Helper()
	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()
	res := Place(n, opts)
	spans, _ := tr.Snapshot()
	var out []map[string]int
	for _, sp := range spans {
		if sp.Name != "place.move" {
			continue
		}
		attrs := map[string]int{}
		for _, a := range sp.Attrs {
			v, err := strconv.Atoi(a.Val)
			if err != nil {
				t.Fatalf("place.move attr %s=%q is not an integer", a.Key, a.Val)
			}
			attrs[a.Key] = v
		}
		out = append(out, attrs)
	}
	return res, out
}

// TestTerritoryEpochSpans: one place.move span per epoch, carrying
// lanes, moves (the proposals it evaluated) and accepted; the moves add up
// to the budget's proposals and the accepted to the Result's.
func TestTerritoryEpochSpans(t *testing.T) {
	n := netlist.Generate(lib(), netlist.Artificial(3))
	moves := 80 * n.NumCells()
	res, spans := moveSpans(t, n, Options{Seed: 2, Workers: 2, Moves: moves, Partitions: 3})
	if want := scheduleEpochs(n.NumCells(), moves); len(spans) != want || want < 55 {
		t.Fatalf("%d place.move spans, want one per epoch: %d", len(spans), want)
	}
	var sumMoves, sumAccepted int
	for i, sp := range spans {
		if len(sp) != 3 || sp["lanes"] != 4 && sp["lanes"] != 9 {
			t.Fatalf("span %d: attrs %v, want lanes (4 stripes or 9 regions), moves, accepted", i, sp)
		}
		sumMoves += sp["moves"]
		sumAccepted += sp["accepted"]
	}
	if sumMoves != moves/stepsPerProposal || sumMoves != res.MovesTried || sumAccepted != res.MovesAccepted {
		t.Fatalf("spans cover %d proposals / %d accepted, want %d = %d tried / %d", sumMoves, sumAccepted, moves/stepsPerProposal, res.MovesTried, res.MovesAccepted)
	}
}

// TestTerritoryDegenerateInputs: designs and budgets smaller than the
// schedule's units — one cell, a grid with fewer columns and rows than
// lanes, fewer proposals than one epoch, than one per lane, none at all —
// neither panic nor stall: the epochs still spend exactly the budget's
// proposals, and the outcome is still the same on every crew.
func TestTerritoryDegenerateInputs(t *testing.T) {
	few := func(comb, ffs int) netlist.Spec {
		return netlist.Spec{Name: "few", Seed: 4, NumComb: comb, NumFFs: ffs, Levels: 1, Locality: 0.5, NumPIs: 1, ClockPeriodPs: 1500}
	}
	for _, tc := range []struct {
		name  string
		spec  netlist.Spec
		moves int
		parts int
	}{
		{"one-cell", few(1, 0), 50, 1},
		{"two-cells", few(1, 1), 50, 1},
		{"narrow-grid", few(3, 1), 200, 1},
		{"narrow-grid/partitioned", few(3, 1), 200, 3},
		{"moves<lanes", netlist.Tiny(1), 3, 1},
		{"moves<epoch", netlist.Tiny(1), 17, 2},
		{"one-move", netlist.Tiny(1), 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Seed: 1, Moves: tc.moves, Partitions: tc.parts, Workers: 1}
			n := netlist.Generate(lib(), tc.spec)
			if g := buildGrid(n, 1, 1, rand.New(rand.NewSource(1))); tc.spec.Name == "few" && g.cols >= lanes && len(g.instAt)/g.cols >= lanes {
				t.Fatalf("%d x %d grid is not narrower than %d lanes", g.cols, len(g.instAt)/g.cols, lanes)
			}
			res, spans := moveSpans(t, n, opts)
			t.Logf("%d cells, %d epochs, tried %d, accepted %d", n.NumCells(), len(spans), res.MovesTried, res.MovesAccepted)
			spent := 0
			for _, sp := range spans {
				spent += sp["moves"]
			}
			if want := tc.moves / stepsPerProposal; spent != want || res.MovesTried > want {
				t.Fatalf("epochs spent %d proposals and tried %d, budget %d", spent, res.MovesTried, want)
			}
			ref := placeOutcomeOf(tc.spec, opts)
			opts.Workers = 3
			if got := placeOutcomeOf(tc.spec, opts); !got.equal(ref) {
				t.Fatalf("workers=3 diverged from workers=1:\n ref %+v\n got %+v", ref.res, got.res)
			}
		})
	}
}

// TestTerritoryCancelWithinOneEpoch: PlaceCtx polls its context once per
// epoch, so an anneal cancelled at poll k has run exactly k epochs — the
// same on every crew — and reports ok=false.
func TestTerritoryCancelWithinOneEpoch(t *testing.T) {
	spec := netlist.Artificial(5)
	moves := 40 * (spec.NumComb + spec.NumFFs)
	full := Place(netlist.Generate(lib(), spec), Options{Seed: 9, Workers: 2, Moves: moves})
	for _, polls := range []int{0, 1, 7} {
		var ref Result
		for _, workers := range []int{1, 2, 4} {
			n := netlist.Generate(lib(), spec)
			ctx := &countdownCtx{Context: context.Background(), left: polls}
			p, rng := newPlacer(ctx, n, Options{Seed: 9, Workers: workers, Moves: moves})
			p.anneal(rng)
			if !p.aborted {
				t.Fatalf("cancelled at poll %d, workers %d: not aborted", polls, workers)
			}
			checkKernelState(t, p)
			// An epoch of the hot phase is a quarter proposal per cell.
			if spent := polls * (n.NumCells() / epochDiv); p.res.MovesTried > spent || p.res.MovesTried >= full.MovesTried {
				t.Fatalf("cancelled at poll %d: tried %d moves, %d epochs hold at most %d", polls, p.res.MovesTried, polls, spent)
			}
			if workers == 1 {
				ref = p.res
			} else if p.res != ref {
				t.Fatalf("cancelled at poll %d: workers %d stopped at %+v, workers 1 at %+v", polls, workers, p.res, ref)
			}
		}
	}
	if _, ok := PlaceCtx(&countdownCtx{Context: context.Background(), left: 3}, netlist.Generate(lib(), spec), Options{Seed: 9, Workers: 2, Moves: moves}); ok {
		t.Fatal("PlaceCtx reported a cancelled anneal as complete")
	}
}
