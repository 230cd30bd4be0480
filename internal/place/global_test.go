package place

import (
	"context"
	"runtime"
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

// TestGlobalPlaceAllocs pins the global step's memory: its slab, at most 32
// bytes an instance and 8 a net, in a constant number of allocations — no
// edge list, nothing grown per solve. An edge list appended on every solve
// cost 4.5 MB on soc-proxy. The runtime hands out an allocation above 32 KiB
// in whole 8 KiB pages, so each of the three may round up by one.
func TestGlobalPlaceAllocs(t *testing.T) {
	for _, spec := range []netlist.Spec{socProxy(), netlist.PulpinoProxy(1)} {
		n := netlist.Generate(lib(), spec)
		p, _ := newPlacer(context.Background(), n, Options{Seed: 1})
		if allocs := testing.AllocsPerRun(3, p.globalPlace); allocs > 3 {
			t.Errorf("%s: %.0f allocations per global step, want at most 3", spec.Name, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.globalPlace()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		limit := uint64(32*n.NumCells() + 8*len(n.Nets) + 3*8192)
		t.Logf("%s: %d cells, %d nets, %d bytes per global step (limit %d)", spec.Name, n.NumCells(), len(n.Nets), bytes, limit)
		if bytes > limit {
			t.Errorf("%s: global step allocated %d bytes, want at most %d", spec.Name, bytes, limit)
		}
	}
}
