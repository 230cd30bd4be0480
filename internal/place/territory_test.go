package place

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/trace"
)

// checkPoll is the anneal's contract at every cancellation poll and once
// more after the last one: the whole kernel state is consistent and, in a
// partitioned run, every instance is inside the region it was locked into
// after the global step.
func checkPoll(t *testing.T, p *placer) {
	t.Helper()
	checkKernelState(t, p)
	if !p.partitioned {
		return
	}
	for inst, slot := range p.g.slotOf {
		in, c, r := p.region[p.part[inst]], slot%p.g.cols, slot/p.g.cols
		if c < in.c0 || c > in.c1 || r < in.r0 || r > in.r1 {
			t.Fatalf("inst %d at slot (%d, %d) left region %d %v", inst, c, r, p.part[inst], in)
		}
	}
}

// TestTerritoryEpochInvariants holds every poll of an anneal to
// checkPoll, flat and partitioned, with the deprecated Workers field set:
// a partitioned run's regions are what the territory engine's lanes were.
func TestTerritoryEpochInvariants(t *testing.T) {
	for _, spec := range []netlist.Spec{netlist.Tiny(2), netlist.Artificial(9), mid3k} {
		for _, layout := range layouts {
			t.Run(spec.Name+"/"+layout.name, func(t *testing.T) {
				n := netlist.Generate(lib(), spec)
				opts := layout.opts
				opts.Seed, opts.Workers, opts.Moves = 5, 2, 40*n.NumCells()
				var p *placer
				polls := 0
				p, rng := newPlacer(probeCtx{context.Background(), func() {
					checkPoll(t, p)
					polls++
				}}, n, opts)
				p.anneal(rng)
				checkPoll(t, p)
				proposals := opts.Moves / stepsPerProposal
				if want := (proposals + abortCheckMoves - 1) / abortCheckMoves; polls != want {
					t.Fatalf("%d polls over %d proposals, want %d", polls, proposals, want)
				}
				if k := layout.opts.Partitions; k > 1 && (!p.partitioned || len(p.region) != k*k) {
					t.Fatalf("partitioned=%v with %d regions, want %d", p.partitioned, len(p.region), k*k)
				}
				if p.res.MovesAccepted == 0 || p.res.MovesConflicted != 0 || p.res.BatchFinal != 0 {
					t.Fatalf("counters: %+v", p.res)
				}
			})
		}
	}
}

// TestTerritoryEpochSpans: a placement opens no span of its own — the
// flow's stage span (flow.place) is its time. The territory engine opened
// one place.move span per epoch; setting Workers opens none now.
func TestTerritoryEpochSpans(t *testing.T) {
	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()
	n := netlist.Generate(lib(), netlist.Artificial(3))
	res := Place(n, Options{Seed: 2, Workers: 2, Moves: 80 * n.NumCells(), Partitions: 3})
	if res.MovesTried == 0 {
		t.Fatal("the anneal tried nothing")
	}
	if spans, _ := tr.Snapshot(); len(spans) != 0 {
		t.Fatalf("%d spans, the first %q; want none", len(spans), spans[0].Name)
	}
}

// TestTerritoryDegenerateInputs: designs and budgets smaller than the
// schedule's units — one cell, a grid fewer than four slots across,
// fewer proposals than one poll, one proposal, none at all — neither
// panic nor stall: the anneal spends at most the budget's proposals,
// leaves a consistent kernel state, and does so at any Workers.
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
			opts := Options{Seed: 1, Moves: tc.moves, Partitions: tc.parts}
			n := netlist.Generate(lib(), tc.spec)
			if g := buildGrid(n, 1, 1, rand.New(rand.NewSource(1))); tc.spec.Name == "few" && g.cols >= 4 && len(g.instAt)/g.cols >= 4 {
				t.Fatalf("%d x %d grid is not narrower than 4 slots", g.cols, len(g.instAt)/g.cols)
			}
			p, rng := newPlacer(context.Background(), n, opts)
			p.anneal(rng)
			checkPoll(t, p)
			t.Logf("%d cells, tried %d, accepted %d", n.NumCells(), p.res.MovesTried, p.res.MovesAccepted)
			if want := tc.moves / stepsPerProposal; p.aborted || p.res.MovesTried > want {
				t.Fatalf("tried %d proposals (aborted %v), budget %d", p.res.MovesTried, p.aborted, want)
			}
			ref := placeOutcomeOf(tc.spec, opts)
			opts.Workers = 3
			if got := placeOutcomeOf(tc.spec, opts); !got.equal(ref) {
				t.Fatalf("Workers 3 diverged from Workers 0:\n ref %+v\n got %+v", ref.res, got.res)
			}
		})
	}
}

// TestTerritoryCancelWithinOneEpoch: the anneal polls its context every
// abortCheckMoves proposals, so one cancelled at poll k has tried at most
// k times that — the same at any Workers — leaves a consistent kernel
// state, and PlaceCtx reports ok=false.
func TestTerritoryCancelWithinOneEpoch(t *testing.T) {
	spec := netlist.Artificial(5)
	moves := 80 * (spec.NumComb + spec.NumFFs)
	full := Place(netlist.Generate(lib(), spec), Options{Seed: 9, Moves: moves})
	for _, polls := range []int{0, 1, 7} {
		var ref Result
		for _, workers := range []int{0, 1, 2, 4} {
			n := netlist.Generate(lib(), spec)
			ctx := &countdownCtx{Context: context.Background(), left: polls}
			p, rng := newPlacer(ctx, n, Options{Seed: 9, Workers: workers, Moves: moves})
			p.anneal(rng)
			if !p.aborted {
				t.Fatalf("cancelled at poll %d, Workers %d: not aborted", polls, workers)
			}
			checkKernelState(t, p)
			if spent := polls * abortCheckMoves; p.res.MovesTried > spent || p.res.MovesTried >= full.MovesTried {
				t.Fatalf("cancelled at poll %d: tried %d moves, %d polls hold at most %d", polls, p.res.MovesTried, polls, spent)
			}
			if workers == 0 {
				ref = p.res
			} else if p.res != ref {
				t.Fatalf("cancelled at poll %d: Workers %d stopped at %+v, Workers 0 at %+v", polls, workers, p.res, ref)
			}
		}
	}
	if _, ok := PlaceCtx(&countdownCtx{Context: context.Background(), left: 3}, netlist.Generate(lib(), spec), Options{Seed: 9, Moves: moves}); ok {
		t.Fatal("PlaceCtx reported a cancelled anneal as complete")
	}
}
