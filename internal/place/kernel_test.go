package place

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
)

// checkKernelState verifies the evaluator's incremental state against a
// from-scratch rebuild: grid maps are inverse, pos is slotOf decomposed,
// and every cached net box equals a fresh scan.
func checkKernelState(t *testing.T, p *placer) {
	t.Helper()
	g := p.g
	for inst, slot := range g.slotOf {
		if g.instAt[slot] != inst {
			t.Fatalf("inst %d: slotOf=%d but instAt[%d]=%d", inst, slot, slot, g.instAt[slot])
		}
		if want := g.latticeOf(slot); g.pos[inst] != want {
			t.Fatalf("inst %d: pos=%v, slot %d decomposes to %v", inst, g.pos[inst], slot, want)
		}
	}
	occupied := 0
	for _, inst := range g.instAt {
		if inst >= 0 {
			occupied++
		}
	}
	if occupied != len(g.slotOf) {
		t.Fatalf("%d occupied slots for %d instances", occupied, len(g.slotOf))
	}
	for nid := range p.box {
		if want := p.scanBox(nid, -1, lattice{}); p.box[nid] != want {
			t.Fatalf("net %d: cached box %v, fresh scan %v", nid, p.box[nid], want)
		}
	}
}

// TestKernelStateAfterAnneal runs every engine shape to the end (or to
// a cancellation) and checks the cached state it leaves behind.
func TestKernelStateAfterAnneal(t *testing.T) {
	cancelAfter := func(polls int) func() context.Context {
		return func() context.Context { return &countdownCtx{Context: context.Background(), left: polls} }
	}
	background := func() context.Context { return context.Background() }
	cases := []struct {
		name    string
		opts    Options
		ctx     func() context.Context
		aborted bool
	}{
		{"serial", Options{Seed: 1}, background, false},
		{"speculative", Options{Seed: 2, Workers: 3, Batch: 64}, background, false},
		{"serial/partitioned", Options{Seed: 3, Partitions: 2}, background, false},
		{"speculative/partitioned/resample", Options{Seed: 4, Workers: 2, Partitions: 2, ResampleCrossRegion: true}, background, false},
		{"serial/aborted", Options{Seed: 5}, cancelAfter(3), true},
		{"speculative/aborted", Options{Seed: 6, Workers: 2, Batch: 64}, cancelAfter(40), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := netlist.Generate(lib(), netlist.Artificial(9))
			tc.opts.Moves = 40 * n.NumCells()
			p, rng := newPlacer(tc.ctx(), n, tc.opts)
			checkKernelState(t, p)
			p.anneal(rng)
			if p.aborted != tc.aborted {
				t.Fatalf("aborted=%v, want %v", p.aborted, tc.aborted)
			}
			if p.res.MovesAccepted == 0 {
				t.Fatal("no move committed before the check")
			}
			checkKernelState(t, p)
		})
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err poll on, so
// an anneal aborts at a deterministic move count.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestEvalDeltaMatchesRealSwap is the differential test of the move
// evaluator: for random proposals of every shape, evalDelta must equal —
// on the float bits — the HPWL change Netlist.HPWL measures over the
// affected nets across a real swap. A quarter of the proposals stay
// committed so later ones see incrementally maintained boxes.
func TestEvalDeltaMatchesRealSwap(t *testing.T) {
	n := netlist.Generate(lib(), netlist.PulpinoProxy(3))
	p, _ := newPlacer(context.Background(), n, Options{Seed: 3})
	rng := rand.New(rand.NewSource(99))

	// Instances pinning one net more than once, and for each instance a
	// neighbour sharing a net with it.
	var twice []int
	for nid := range n.Nets {
		seen := map[int32]bool{}
		for _, pin := range p.pins.Of(nid) {
			if seen[pin] && !n.Nets[nid].IsClock {
				twice = append(twice, int(pin))
			}
			seen[pin] = true
		}
	}
	if len(twice) == 0 {
		t.Fatal("design has no instance pinning a net twice")
	}
	neighbour := func(inst int) int {
		for _, nid := range p.inc.Of(inst) {
			for _, pin := range p.pins.Of(int(nid)) {
				if int(pin) != inst {
					return int(pin)
				}
			}
		}
		return inst
	}
	sumHPWL := func(nets []int32) float64 {
		var s float64
		for _, nid := range nets {
			s += n.HPWL(int(nid))
		}
		return s
	}

	var empty, own, shared int
	for i := 0; i < 5000; i++ {
		inst, slot := rng.Intn(n.NumCells()), rng.Intn(len(p.g.instAt))
		switch i % 8 {
		case 1:
			slot = p.g.slotOf[inst]
		case 2:
			slot = p.g.slotOf[neighbour(inst)]
		case 3:
			inst = twice[rng.Intn(len(twice))]
		case 4:
			inst = twice[rng.Intn(len(twice))]
			slot = p.g.slotOf[neighbour(inst)]
		}
		other := p.g.instAt[slot]

		got, cost := p.evalDelta(inst, slot, &p.eval)
		aff := append([]int32(nil), p.eval.affected...)
		if cost != 2*len(aff) {
			t.Fatalf("proposal %d: cost %d for %d affected nets", i, cost, len(aff))
		}
		switch {
		case other < 0:
			empty++
		case other == inst:
			own++
		}
		for _, f := range p.eval.flags {
			if f == 3 {
				shared++
				break
			}
		}

		oldSlot := p.g.slotOf[inst]
		before := sumHPWL(aff)
		if other != inst { // own slot: nothing moves
			p.commitSwap(inst, slot)
		}
		applyCoords(n, p.g)
		want := sumHPWL(aff) - before
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("proposal %d (inst %d -> slot %d, occupant %d): evalDelta %v (%x), real swap %v (%x)",
				i, inst, slot, other, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if other != inst && i%4 != 0 {
			p.commitSwap(inst, oldSlot) // undo: the occupant, if any, returns too
			applyCoords(n, p.g)
		}
	}
	if empty == 0 || own == 0 || shared == 0 {
		t.Fatalf("proposal shapes not all exercised: empty=%d own=%d shared-net=%d", empty, own, shared)
	}
	checkKernelState(t, p)
}
