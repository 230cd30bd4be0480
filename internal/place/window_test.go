package place

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"repro/internal/netlist"
)

// socProxy is the benchmark's large design: the pulpino proxy with ten
// times the cells (benchmark/workloads.go).
func socProxy() netlist.Spec {
	s := netlist.PulpinoProxy(1)
	s.Name = "soc-proxy"
	s.NumComb *= 10
	s.NumFFs *= 10
	s.NumPIs *= 2
	return s
}

// sweep lists, for each k in [0, n), the smallest and the largest 64-bit
// draw that multiply-shift maps to k: both ends of every bucket of a full
// sweep of draw values.
func sweep(n int) []uint64 {
	var xs []uint64
	first := func(k int) uint64 { // ceil(k * 2^64 / n)
		q, rem := bits.Div64(uint64(k), 0, uint64(n))
		if rem != 0 {
			q++
		}
		return q
	}
	for k := 0; k < n; k++ {
		last := uint64(math.MaxUint64)
		if k+1 < n {
			last = first(k+1) - 1
		}
		xs = append(xs, first(k), last)
	}
	return xs
}

// TestWindowDraw enumerates target on small grids: for every rectangle a
// proposal is ever clipped to — the die and the regions of a partitioned
// run — every slot of it an instance can sit in
// and every half-width the schedule reaches, a full sweep of draw values
// lands on every other slot of window ∩ rectangle equally often and on
// nothing else: never outside, never on the instance's own slot. The
// half-width never grows as the temperature falls, covers the whole die at
// T0 and is one slot at T0/2000.
func TestWindowDraw(t *testing.T) {
	for _, dim := range [][2]int{{1, 2}, {2, 1}, {1, 9}, {9, 1}, {3, 3}, {5, 4}, {8, 8}, {13, 6}} {
		cols, rows := dim[0], dim[1]
		p := rawPlacer(cols, rows, []int{0}, nil)
		p.w, p.h = 0.7*float64(cols), 1.3*float64(rows) // rawPlacer's slot pitch
		g := p.g

		// The half-widths of a schedule, hot to cold.
		type halfWidth struct{ rc, rr int }
		var reaches []halfWidth
		const steps = 200
		cool := math.Pow(1.0/finalTempDiv, 1.0/steps)
		for m := 0; m <= steps; m++ {
			rc, rr := p.reach(math.Pow(cool, float64(m)))
			if m == 0 && (rc < cols-1 || rr < rows-1) {
				t.Fatalf("%dx%d: half-width %d x %d at T0 does not span the die", cols, rows, rc, rr)
			}
			if m == steps && (rc != 1 || rr != 1) {
				t.Fatalf("%dx%d: half-width %d x %d at T0/%d, want one slot", cols, rows, rc, rr, finalTempDiv)
			}
			if last := len(reaches) - 1; m == 0 || reaches[last] != (halfWidth{rc, rr}) {
				if m > 0 && (rc > reaches[last].rc || rr > reaches[last].rr) {
					t.Fatalf("%dx%d: half-width grew from %v to %d x %d as the anneal cooled", cols, rows, reaches[last], rc, rr)
				}
				reaches = append(reaches, halfWidth{rc, rr})
			}
		}

		bounds := []rect{{0, 0, cols - 1, rows - 1}}
		for _, k := range []int{2, 3} {
			p.opts.Partitions = k
			p.assignPartitions()
			bounds = append(bounds, p.region...)
		}
		hits := make([]int, cols*rows)
		for _, in := range bounds {
			for r := in.r0; r <= in.r1; r++ {
				for c := in.c0; c <= in.c1; c++ {
					own := r*cols + c
					g.slotOf[0], g.pos[0] = own, g.word(own)
					for _, w := range reaches {
						win := rect{max(in.c0, c-w.rc), max(in.r0, r-w.rr), min(in.c1, c+w.rc), min(in.r1, r+w.rr)}
						others := (win.c1-win.c0+1)*(win.r1-win.r0+1) - 1
						if others == 0 {
							for _, x := range []uint64{0, 1 << 63, math.MaxUint64} {
								if got := g.target(x, 0, in, w.rc, w.rr); got != -1 {
									t.Fatalf("%dx%d in %v at slot %d: target %d from a window of one slot, want -1", cols, rows, in, own, got)
								}
							}
							continue
						}
						clear(hits)
						for _, x := range sweep(others) {
							got := g.target(x, 0, in, w.rc, w.rr)
							if got < 0 || got >= len(hits) {
								t.Fatalf("%dx%d in %v at slot %d, half-width %v, draw %#x: target %d is off the grid", cols, rows, in, own, w, x, got)
							}
							hits[got]++
						}
						for s, n := range hits {
							sc, sr := s%cols, s/cols
							want := 0
							if s != own && sc >= win.c0 && sc <= win.c1 && sr >= win.r0 && sr <= win.r1 {
								want = 2 // both ends of its bucket
							}
							if n != want {
								t.Fatalf("%dx%d in %v at slot %d, half-width %v: slot %d drawn %d times over a full sweep, want %d (window %v)",
									cols, rows, in, own, w, s, n, want, win)
							}
						}
					}
				}
			}
		}
	}
}

// TestBudget: an anneal evaluates exactly Moves/stepsPerProposal proposals
// — flat and partitioned, no step is burned without an evaluation —
// budgets below one proposal do nothing gracefully, and the schedule those
// proposals walk ends at T0/finalTempDiv. The territory cases set the
// deprecated Workers field, which spends the same budget.
func TestBudget(t *testing.T) {
	spec := netlist.Artificial(2)
	cells := spec.NumComb + spec.NumFFs
	for _, tc := range []struct {
		name string
		opts Options
		want int
	}{
		{"flat", Options{Moves: 40 * cells}, 40 * cells / stepsPerProposal},
		{"flat/odd", Options{Moves: 40*cells + 1}, 40 * cells / stepsPerProposal},
		{"partitioned", Options{Moves: 40 * cells, Partitions: 2}, 40 * cells / stepsPerProposal},
		{"partitioned3", Options{Moves: 40 * cells, Partitions: 3}, 40 * cells / stepsPerProposal},
		{"territory", Options{Moves: 40 * cells, Workers: 2}, 40 * cells / stepsPerProposal},
		{"territory/partitioned", Options{Moves: 40 * cells, Workers: 2, Partitions: 3}, 40 * cells / stepsPerProposal},
		{"default", Options{}, 120 * cells / stepsPerProposal},
		{"moves1", Options{Moves: stepsPerProposal - 1}, 0},
		{"moves2", Options{Moves: stepsPerProposal}, 1},
		{"moves3", Options{Moves: 2*stepsPerProposal - 1, Partitions: 2}, 1},
		{"territory/moves1", Options{Moves: stepsPerProposal - 1, Workers: 2}, 0},
		{"territory/moves3", Options{Moves: 2*stepsPerProposal - 1, Workers: 2}, 1},
		{"territory/moves<lanes", Options{Moves: 4*stepsPerProposal - 1, Workers: 3, Partitions: 2}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Seed = 5
			p, rng := newPlacer(context.Background(), netlist.Generate(lib(), spec), tc.opts)
			t0, cool := p.schedule(rng)
			if end := t0 * math.Pow(cool, float64(tc.want)); tc.want > 0 && math.Abs(end*finalTempDiv/t0-1) > 1e-9 {
				t.Fatalf("%d proposals cool %v to %v, want 1/%d of it", tc.want, t0, end, finalTempDiv)
			}
			p.anneal(rng)
			checkKernelState(t, p)
			if p.aborted || p.res.MovesTried != tc.want || p.res.MovesAccepted > tc.want {
				t.Fatalf("tried %d, accepted %d, aborted %v; want exactly %d proposals evaluated", p.res.MovesTried, p.res.MovesAccepted, p.aborted, tc.want)
			}
		})
	}
}

// TestAcceptanceBand: at the flow's budget (60 steps per cell) the serial
// engine accepts at least a fifth of what it evaluates — a tenth with the
// die-wide draw the window replaced — and more budget never buys a longer
// placement. DESIGN.md "Global start, window and budget" quotes the
// acceptance it logs.
func TestAcceptanceBand(t *testing.T) {
	specs := []netlist.Spec{netlist.PulpinoProxy(1), mid3k, socProxy()}
	if testing.Short() {
		specs = specs[:2]
	}
	for _, spec := range specs {
		design := netlist.Generate(lib(), spec)
		longer := math.Inf(1)
		for _, perCell := range []int{15, 30, 40, 60, 120} {
			var hpwl, accept float64
			const seeds = 3
			for seed := int64(1); seed <= seeds; seed++ {
				n := design.Clone()
				res := Place(n, Options{Seed: seed, Moves: perCell * n.NumCells()})
				hpwl += res.HPWLUm / seeds
				accept += float64(res.MovesAccepted) / float64(res.MovesTried) / seeds
			}
			t.Logf("%s, %3d steps per cell: HPWL %.0f, acceptance %.3f", spec.Name, perCell, hpwl, accept)
			if hpwl > longer {
				t.Errorf("%s: %d steps per cell place %.0f, the budget before %.0f", spec.Name, perCell, hpwl, longer)
			}
			longer = hpwl
			if perCell == 60 && accept < 0.20 {
				t.Errorf("%s: acceptance %.3f at the flow's budget, want >= 0.20", spec.Name, accept)
			}
		}
	}
}
