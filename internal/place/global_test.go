package place

import (
	"context"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// checkLegal is checkKernelState plus the placement's legality: every
// instance sits in a slot of its own (checkKernelState holds slotOf and
// instAt inverse and counts one occupied slot per instance), every slot is
// on the lattice and every slot centre on the die.
func checkLegal(t *testing.T, p *placer) {
	t.Helper()
	checkKernelState(t, p)
	g := p.g
	for inst, slot := range g.slotOf {
		if slot < 0 || slot >= len(g.instAt) {
			t.Fatalf("inst %d in slot %d of %d", inst, slot, len(g.instAt))
		}
		if x, y := g.coords(slot); x < 0 || x > p.w || y < 0 || y > p.h {
			t.Fatalf("inst %d at (%v, %v), off the %v x %v die", inst, x, y, p.w, p.h)
		}
	}
}

// degenerate returns the Tiny design with its nets replaced: none at all
// when pins is -1, or every net reduced to its driver (pins 1) or to no pin
// at all (pins 0).
func degenerate(pins int) *netlist.Netlist {
	n := netlist.Generate(lib(), netlist.Tiny(1))
	if pins < 0 {
		n.Insts = n.Insts[:0]
		n.Nets = n.Nets[:0]
		return n
	}
	for i := range n.Nets {
		n.Nets[i].Sinks = nil
		if pins == 0 {
			n.Nets[i].Driver = -1
		}
	}
	return n
}

// TestGlobalStepLegal: the global step leaves a legal placement and a
// consistent kernel state, and so does the anneal after it, flat and
// partitioned, for real designs and for netlists that give the solve
// nothing to pull on. The territory case sets the deprecated Workers
// field, which the placer ignores.
func TestGlobalStepLegal(t *testing.T) {
	oneCell := netlist.Spec{Name: "one-cell", Seed: 4, NumComb: 1, Levels: 1, Locality: 0.5, NumPIs: 1, ClockPeriodPs: 1500}
	designs := []struct {
		name string
		make func() *netlist.Netlist
	}{
		{"tiny", func() *netlist.Netlist { return netlist.Generate(lib(), netlist.Tiny(2)) }},
		{"pulpino", func() *netlist.Netlist { return netlist.Generate(lib(), netlist.PulpinoProxy(1)) }},
		{"mid3k", func() *netlist.Netlist { return netlist.Generate(lib(), mid3k) }},
		{"no-cells", func() *netlist.Netlist { return degenerate(-1) }},
		{"one-cell", func() *netlist.Netlist { return netlist.Generate(lib(), oneCell) }},
		{"one-pin-nets", func() *netlist.Netlist { return degenerate(1) }},
		{"pinless-nets", func() *netlist.Netlist { return degenerate(0) }},
	}
	for _, d := range designs {
		for _, layout := range []struct {
			name string
			opts Options
		}{{"serial", Options{Seed: 3}}, {"partitioned", Options{Seed: 4, Partitions: 2}}, {"territory", Options{Seed: 5, Workers: 2}}} {
			n, opts := d.make(), layout.opts
			opts.Moves = 40 * n.NumCells()
			t.Run(d.name+"/"+layout.name, func(t *testing.T) {
				if d.name == "one-cell" && n.NumCells() != 1 {
					t.Fatalf("%d cells, want 1", n.NumCells())
				}
				p, rng := newPlacer(context.Background(), n, opts)
				checkLegal(t, p)
				p.anneal(rng)
				checkLegal(t, p)
			})
		}
	}
}

// globalCoords runs newPlacer — scatter and global step, no anneal — and
// returns the placement it hands the anneal.
func globalCoords(spec netlist.Spec, seed int64) []int {
	p, _ := newPlacer(context.Background(), netlist.Generate(lib(), spec), Options{Seed: seed})
	return p.g.slotOf
}

// TestGlobalStepDeterministic: a seed places bit for bit alike, after the
// global step and after the anneal; another seed starts the solve from
// another scatter and lands elsewhere; and the deprecated Workers field
// changes nothing.
func TestGlobalStepDeterministic(t *testing.T) {
	for _, spec := range []netlist.Spec{netlist.Tiny(2), netlist.PulpinoProxy(1), mid3k} {
		if a, b := globalCoords(spec, 1), globalCoords(spec, 1); !slices.Equal(a, b) {
			t.Fatalf("%s: seed 1 spread differently twice", spec.Name)
		}
		if a, b := globalCoords(spec, 1), globalCoords(spec, 2); slices.Equal(a, b) {
			t.Fatalf("%s: seeds 1 and 2 spread alike", spec.Name)
		}
		opts := Options{Seed: 7, Moves: 40 * (spec.NumComb + spec.NumFFs)}
		if a, b := placeOutcomeOf(spec, opts), placeOutcomeOf(spec, opts); !a.equal(b) {
			t.Fatalf("%s: seed 7 placed differently twice", spec.Name)
		}
		serial := placeOutcomeOf(spec, opts)
		opts.Workers = 2
		if two := placeOutcomeOf(spec, opts); !two.equal(serial) {
			t.Fatalf("%s: Workers 2 placed %+v, Workers 0 %+v", spec.Name, two.res, serial.res)
		}
	}
}

// spreadsOf runs the global step round by round on a fresh placer for
// spec, checks the placement legal and the kernel state consistent after
// every spread, intermediate and last, and returns the slot of every
// instance after each.
func spreadsOf(t *testing.T, spec netlist.Spec) [][]int {
	t.Helper()
	p, _ := newPlacer(context.Background(), netlist.Generate(lib(), spec), Options{Seed: 3})
	var gs globalState
	gs.init(p) // from the last spread's placement: the rounds start near their answer
	var spreads [][]int
	for i := range globalRounds {
		gs.round(i)
		p.rescanAll()
		checkLegal(t, p)
		spreads = append(spreads, slices.Clone(p.g.slotOf))
	}
	return spreads
}

// TestSpreadsLegal: every spread of the global step, the intermediate ones
// that fill leaves and the last that bisects to single slots, leaves each
// instance in a slot of its own and a consistent kernel state, and two runs
// spread bit for bit alike. A lattice of one leaf is bisected to single
// slots in every round; on a larger one the intermediate spreads do fill
// leaves: refilling one by bisection moves instances.
func TestSpreadsLegal(t *testing.T) {
	for _, spec := range []netlist.Spec{netlist.Tiny(2), netlist.PulpinoProxy(1), mid3k} {
		a, b := spreadsOf(t, spec), spreadsOf(t, spec)
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("%s: spread %d differs between two runs", spec.Name, i)
			}
		}
	}
	tiny, _ := newPlacer(context.Background(), netlist.Generate(lib(), netlist.Tiny(2)), Options{Seed: 3})
	var small globalState
	small.init(tiny)
	small.round(0)
	first := slices.Clone(tiny.g.slotOf)
	if small.spread(0); len(tiny.g.instAt) > leafSlots || !slices.Equal(first, tiny.g.slotOf) {
		t.Fatalf("Tiny: %d slots: want a lattice of one leaf bisected to single slots in the first round", len(tiny.g.instAt))
	}
	p, _ := newPlacer(context.Background(), netlist.Generate(lib(), mid3k), Options{Seed: 3})
	if slots := len(p.g.instAt); slots <= 2*leafSlots {
		t.Fatalf("mid3k has %d slots, too few to split into leaves", slots)
	}
	var gs globalState
	gs.init(p)
	gs.spread(leafSlots)
	filled := slices.Clone(p.g.slotOf)
	gs.spread(0)
	if slices.Equal(filled, p.g.slotOf) {
		t.Fatal("mid3k: an intermediate spread placed as the last one does")
	}
}

// TestFillLeaf fills leaves of the Tiny design's lattice directly: a leaf
// with fewer instances than slots, a full one, a one-row and a one-column
// leaf. Every instance lands in a slot of its own inside the leaf; the
// rows take the instances in y order, each an even share of them, and a
// row holds its instances left to right in x order.
func TestFillLeaf(t *testing.T) {
	p, _ := newPlacer(context.Background(), netlist.Generate(lib(), netlist.Tiny(2)), Options{Seed: 3})
	cols, rows := p.g.cols, len(p.g.rowY)
	if cols < 6 || rows < 5 || p.n.NumCells() < 30 {
		t.Fatalf("a %d x %d lattice for %d cells is too small for the leaves below", cols, rows, p.n.NumCells())
	}
	var gs globalState
	gs.init(p)
	for _, tc := range []struct {
		name  string
		in    rect
		insts int
	}{
		{"fewer instances than slots", rect{1, 1, 5, 4}, 13},
		{"full", rect{0, 0, 5, 4}, 30},
		{"one row", rect{0, 2, cols - 1, 2}, cols - 2},
		{"one column", rect{3, 0, 3, rows - 1}, rows - 1},
		{"one instance", rect{0, 0, 5, 4}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for s := range p.g.instAt {
				p.g.instAt[s] = -1
			}
			keys := make([]uint64, tc.insts)
			for i := range keys {
				keys[i] = uint64(i)
			}
			gs.fill(tc.in, keys)
			byRow := map[int][]int{}
			for inst := range tc.insts {
				slot := p.g.slotOf[inst]
				c, r := slot%cols, slot/cols
				if c < tc.in.c0 || c > tc.in.c1 || r < tc.in.r0 || r > tc.in.r1 {
					t.Fatalf("inst %d in slot (%d, %d), outside the leaf %+v", inst, c, r, tc.in)
				}
				if p.g.instAt[slot] != inst || p.g.pos[inst] != posWord(p.g, slot) {
					t.Fatalf("inst %d: slot %d holds %d, pos %#x", inst, slot, p.g.instAt[slot], p.g.pos[inst])
				}
				byRow[r] = append(byRow[r], inst)
			}
			n, leafRows := tc.insts, tc.in.r1-tc.in.r0+1
			for r := tc.in.r0; r <= tc.in.r1; r++ {
				if got := len(byRow[r]); got < n/leafRows || got > (n+leafRows-1)/leafRows {
					t.Fatalf("row %d holds %d of %d instances over %d rows", r, got, n, leafRows)
				}
				// Left to right, a row's instances are in x order, and
				// every one of them is at or above every one of the row
				// below in y.
				slices.SortFunc(byRow[r], func(a, b int) int { return p.g.slotOf[a] - p.g.slotOf[b] })
				for j, inst := range byRow[r] {
					if j > 0 && gs.x[inst] < gs.x[byRow[r][j-1]] {
						t.Fatalf("row %d: inst %d at x %v right of inst %d at x %v", r, inst, gs.x[inst], byRow[r][j-1], gs.x[byRow[r][j-1]])
					}
					for _, below := range byRow[r-1] {
						if gs.y[inst] < gs.y[below] {
							t.Fatalf("inst %d at y %v in row %d, inst %d at y %v in the row below", inst, gs.y[inst], r, below, gs.y[below])
						}
					}
				}
			}
		})
	}
}

// TestGlobalPlaceAllocs pins the global step's memory: its slab, at most 32
// bytes an instance and 8 a net, in a constant number of allocations — no
// edge list, nothing grown per solve. An edge list appended on every solve
// cost 4.5 MB on soc-proxy. The runtime hands out an allocation above 32 KiB
// in whole 8 KiB pages, so each of the three may round up by one.
//
// Both counts are process-wide, so they are taken with the collector off:
// every cycle wakes the runtime's cleanup of unique's maps (net/netip
// registers one, and internal/trace brings in net/http), which allocates
// two objects on its own goroutine. A window in which the runtime started
// an OS thread, which allocates six objects (5.5 KB) for its m and two g's,
// is taken again. Two cycles inside the three counted steps read as four
// allocations a step, one thread as five.
func TestGlobalPlaceAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	threads := pprof.Lookup("threadcreate")
	for _, spec := range []netlist.Spec{socProxy(), netlist.PulpinoProxy(1)} {
		n := netlist.Generate(lib(), spec)
		p, _ := newPlacer(context.Background(), n, Options{Seed: 1})
		var allocs float64
		var bytes uint64
		for try := 0; try < 5; try++ {
			runtime.GC() // the cleanup it wakes runs while it waits
			started := threads.Count()
			allocs = testing.AllocsPerRun(3, p.globalPlace)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p.globalPlace()
			runtime.ReadMemStats(&after)
			bytes = after.TotalAlloc - before.TotalAlloc
			if threads.Count() == started {
				break
			}
		}
		if allocs > 3 {
			t.Errorf("%s: %.0f allocations per global step, want at most 3", spec.Name, allocs)
		}
		limit := uint64(32*n.NumCells() + 8*len(n.Nets) + 3*8192)
		t.Logf("%s: %d cells, %d nets, %d bytes per global step (limit %d)", spec.Name, n.NumCells(), len(n.Nets), bytes, limit)
		if bytes > limit {
			t.Errorf("%s: global step allocated %d bytes, want at most %d", spec.Name, bytes, limit)
		}
	}
}

// TestGlobalPlaceZeroCellsRescans: a netlist without instances skips the
// global step's rounds, but the step still leaves every net record as
// rescan computes it — initNets leaves them zero.
func TestGlobalPlaceZeroCellsRescans(t *testing.T) {
	n := &netlist.Netlist{Lib: lib(), ClockNet: -1, Nets: []netlist.Net{{ID: 0, Driver: -1}}}
	p, _ := newPlacer(context.Background(), n, Options{Seed: 1})
	if want := (netRec{a: laneMax, b: laneMax}); p.net[0] != want {
		t.Fatalf("pinless net's record %+v, want %+v", p.net[0], want)
	}
}
