package place

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// commitSwap is the reference commit the engines' commitEvaluated is held
// against: perform the swap and derive every affected net's box again,
// with the same per-net case split as evalDelta. It borrows p.eval, so a
// caller that wants evalDelta's lists copies them first.
func (p *placer) commitSwap(inst, slot int) {
	g := p.g
	other := g.instAt[slot]
	from, to := g.pos[inst], g.latticeOf(slot)
	aff, flags := p.eval.collect(p.inc, inst, other)
	for k, nid := range aff {
		switch flags[k] {
		case 1:
			p.box[nid] = p.movedBox(int(nid), int32(inst), from, to)
		case 2:
			p.box[nid] = p.movedBox(int(nid), int32(other), to, from)
		}
	}
	swap(g, inst, slot)
}

// TestKernelStateAfterAnneal runs every engine shape to the end (or to
// a cancellation) and checks the cached state it leaves behind. The case
// names predate the territory engine: "speculative" is Workers > 0.
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
		{"speculative", Options{Seed: 2, Workers: 3}, background, false},
		{"serial/partitioned", Options{Seed: 3, Partitions: 2}, background, false},
		{"speculative/partitioned/resample", Options{Seed: 4, Workers: 2, Partitions: 2, ResampleCrossRegion: true}, background, false},
		{"serial/aborted", Options{Seed: 5}, cancelAfter(3), true},
		{"speculative/aborted", Options{Seed: 6, Workers: 2}, cancelAfter(40), true},
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
			if tc.opts.Workers == 0 {
				return
			}
			// The same anneal — cancelled at the same poll — on another
			// crew: counters and the bound-decided tally must not move.
			opts := tc.opts
			opts.Workers = tc.opts.Workers%3 + 1
			q, rng := newPlacer(tc.ctx(), netlist.Generate(lib(), netlist.Artificial(9)), opts)
			q.anneal(rng)
			if q.res != p.res || q.boundDecided != p.boundDecided {
				t.Fatalf("workers %d vs %d: result %+v / %d bound-decided, want %+v / %d",
					opts.Workers, tc.opts.Workers, q.res, q.boundDecided, p.res, p.boundDecided)
			}
		})
	}
}

// TestSerialCommitKeepsKernelState drives a short serial anneal one
// proposal at a time — annealSerial's own evaluate / accept / commit
// steps — and checks the whole cached state after every commit:
// commitEvaluated stores the boxes evalDelta left in p.eval, so a commit
// fed by a stale scratch shows up here at the move that made it.
func TestSerialCommitKeepsKernelState(t *testing.T) {
	n := netlist.Generate(lib(), netlist.Artificial(9))
	p, rng := newPlacer(context.Background(), n, Options{Seed: 7, Moves: 6 * n.NumCells()})
	temp, cool := p.schedule(rng)
	viaQuick, viaAccepts := 0, 0
	for m := 0; m < p.opts.Moves; m++ {
		inst, slot := rng.Intn(n.NumCells()), rng.Intn(len(p.g.instAt))
		if slot == p.g.slotOf[inst] {
			continue
		}
		d, _, bounded := p.quickDelta(inst, slot, &p.eval)
		if p.accepts(rng, inst, slot, d, bounded, temp) {
			p.commitEvaluated(inst, slot)
			checkKernelState(t, p)
			if bounded {
				viaAccepts++
			} else {
				viaQuick++
			}
		}
		temp *= cool
	}
	if viaQuick == 0 || viaAccepts == 0 {
		t.Fatalf("commits evaluated by quickDelta: %d, by accepts: %d; want both", viaQuick, viaAccepts)
	}
}

// placeTally is Place plus the private tally of bound-decided proposals.
func placeTally(n *netlist.Netlist, opts Options) (Result, int) {
	p, rng := newPlacer(context.Background(), n, opts)
	p.anneal(rng)
	return p.finish(), p.boundDecided
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

	twice, _ := oddInstances(t, p)
	neighbour := p.neighbour
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

// oddInstances lists the instances pinning one (non-clock) net more than
// once, and those that are the only pin of a net.
func oddInstances(t *testing.T, p *placer) (twice, lone []int) {
	t.Helper()
	for nid := range p.n.Nets {
		if p.n.Nets[nid].IsClock {
			continue
		}
		pins := p.pins.Of(nid)
		if len(pins) == 1 {
			lone = append(lone, int(pins[0]))
		}
		seen := map[int32]bool{}
		for _, pin := range pins {
			if seen[pin] {
				twice = append(twice, int(pin))
			}
			seen[pin] = true
		}
	}
	if len(twice) == 0 || len(lone) == 0 {
		t.Fatalf("design has %d double-pinning instances and %d one-pin nets, want both", len(twice), len(lone))
	}
	return twice, lone
}

// neighbour returns an instance sharing a net with inst (inst itself if
// there is none).
func (p *placer) neighbour(inst int) int {
	for _, nid := range p.inc.Of(inst) {
		for _, pin := range p.pins.Of(int(nid)) {
			if int(pin) != inst {
				return int(pin)
			}
		}
	}
	return inst
}

// TestBoundDeltaCertificate checks the certificate itself, not its
// outcome: on states taken hot, mid-schedule and frozen, flat and
// partitioned, for random proposals of every shape, boundDelta is at
// most evalDelta on the float values with the same cost, refuses exactly
// the proposals whose endpoints share a net, and accepts on quickDelta's
// answer decides and draws like the reference test on the exact delta —
// at temperatures on both sides of what the bound can settle.
func TestBoundDeltaCertificate(t *testing.T) {
	spec := netlist.PulpinoProxy(3)
	moves := 60 * netlist.Generate(lib(), spec).NumCells()
	polls := (moves + abortCheckMoves - 1) / abortCheckMoves
	states := []struct {
		name string
		ctx  func() context.Context
	}{
		{"hot", func() context.Context { return &countdownCtx{Context: context.Background()} }},
		{"mid", func() context.Context { return &countdownCtx{Context: context.Background(), left: polls / 2} }},
		{"frozen", context.Background},
	}
	for _, layout := range []struct {
		name  string
		parts int
	}{{"flat", 1}, {"partitioned", 2}} {
		for _, st := range states {
			t.Run(st.name+"/"+layout.name, func(t *testing.T) {
				n := netlist.Generate(lib(), spec)
				p, annealRng := newPlacer(st.ctx(), n, Options{Seed: 3, Moves: moves, Partitions: layout.parts})
				p.anneal(annealRng)
				checkBoundCertificate(t, p)
			})
		}
	}
}

func checkBoundCertificate(t *testing.T, p *placer) {
	twice, lone := oddInstances(t, p)
	var free []int
	for slot, inst := range p.g.instAt {
		if inst < 0 {
			free = append(free, slot)
		}
	}
	rng := rand.New(rand.NewSource(17))
	// Twin streams for the two accept tests: they stay in step only while
	// every proposal draws the same number of coins from each.
	ref, got := rand.New(rand.NewSource(18)), rand.New(rand.NewSource(18))
	var proposals, empty, shared, positive, boundPositive, decided, undecided int
	for i := 0; proposals < 6000; i++ {
		inst, slot := rng.Intn(p.n.NumCells()), rng.Intn(len(p.g.instAt))
		switch i % 8 {
		case 1:
			slot = free[rng.Intn(len(free))]
		case 2:
			slot = p.g.slotOf[p.neighbour(inst)]
		case 3:
			inst = twice[rng.Intn(len(twice))]
		case 4:
			inst = twice[rng.Intn(len(twice))]
			slot = p.g.slotOf[p.neighbour(inst)]
		case 5:
			inst = lone[rng.Intn(len(lone))]
		}
		if slot == p.g.slotOf[inst] {
			continue // never proposed: the engines skip it before evaluating
		}
		proposals++
		if p.g.instAt[slot] < 0 {
			empty++
		}
		delta, cost := p.evalDelta(inst, slot, &p.eval)
		sharesNet := slices.Contains(p.eval.flags, 3)
		lb, lbCost, ok := p.boundDelta(inst, slot)
		if ok == sharesNet {
			t.Fatalf("inst %d -> slot %d: bound ok=%v but endpoints share a net: %v", inst, slot, ok, sharesNet)
		}
		if sharesNet {
			shared++
			continue
		}
		if lb > delta || lbCost != cost {
			t.Fatalf("inst %d -> slot %d (occupant %d): bound %v cost %d, exact %v cost %d",
				inst, slot, p.g.instAt[slot], lb, lbCost, delta, cost)
		}
		if delta > 0 {
			positive++
		}
		if lb <= 0 {
			continue
		}
		boundPositive++
		// The accept test, reference against bound-first.
		for _, scale := range []float64{0.02, 0.2, 1, 5, 50} {
			temp := delta * scale
			want := delta <= 0 || ref.Float64() < math.Exp(-delta/temp)
			before := p.boundDecided
			d, _, bounded := p.quickDelta(inst, slot, &p.eval)
			if !bounded || d != lb {
				t.Fatalf("quickDelta = %v, %v with a positive bound %v", d, bounded, lb)
			}
			if acc := p.accepts(got, inst, slot, d, bounded, temp); acc != want {
				t.Fatalf("inst %d -> slot %d at temp %v: accepted=%v, reference %v (bound %v, exact %v)",
					inst, slot, temp, acc, want, lb, delta)
			}
			if ref.Int63() != got.Int63() {
				t.Fatalf("inst %d -> slot %d at temp %v: the two accept tests drew differently", inst, slot, temp)
			}
			if p.boundDecided > before {
				decided++
			} else {
				undecided++
			}
		}
	}
	t.Logf("%d proposals: %d into empty slots, %d sharing a net; bound positive on %d of %d uphill; coins decided by the bound %d, by the exact delta %d",
		proposals, empty, shared, boundPositive, positive, decided, undecided)
	if empty == 0 || shared == 0 || decided == 0 || undecided == 0 {
		t.Fatal("proposal shapes or accept branches not all exercised")
	}
}

// annealSerialRef is annealSerial as it was before the bound-first accept
// test, verbatim: every proposal evaluated exactly, the coin drawn only
// for an uphill delta.
func annealSerialRef(p *placer, rng *rand.Rand) {
	temp, cool := p.schedule(rng)
	numCells := p.n.NumCells()
	numSlots := len(p.g.instAt)
	coarseMoves := 0
	if p.opts.Partitions > 1 {
		coarseMoves = p.opts.Moves / 4
	}
	for m := 0; m < p.opts.Moves; m++ {
		if m&(abortCheckMoves-1) == 0 && p.ctx.Err() != nil {
			p.aborted = true
			return
		}
		if p.opts.Partitions > 1 && !p.partitioned && m >= coarseMoves {
			p.assignPartitions()
		}
		inst := rng.Intn(numCells)
		slot := rng.Intn(numSlots)
		if slot == p.g.slotOf[inst] {
			temp *= cool
			continue
		}
		if p.partitioned && p.regionOfSlot(slot) != p.part[inst] {
			if !p.opts.ResampleCrossRegion {
				temp *= cool
				continue
			}
			cand := p.regionSlots[p.part[inst]]
			slot = int(cand[rng.Intn(len(cand))])
			p.res.MovesResampled++
			if slot == p.g.slotOf[inst] {
				temp *= cool
				continue
			}
		}
		p.res.MovesTried++
		delta, cost := p.evalDelta(inst, slot, &p.eval)
		p.res.RuntimeProxy += cost
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			p.commitSwap(inst, slot)
			p.res.MovesAccepted++
		}
		temp *= cool
	}
}

// probeCtx is never cancelled; it calls poll wherever the annealer polls.
type probeCtx struct {
	context.Context
	poll func()
}

func (c probeCtx) Err() error {
	c.poll()
	return nil
}

// TestSerialAnnealMatchesReference runs the serial engine beside the
// pre-bound loop: the same accepted count at every cancellation poll
// (every 4096 moves), the same Result and placement, and the same next
// draw from the stream — so no decision and no draw differed.
func TestSerialAnnealMatchesReference(t *testing.T) {
	type outcome struct {
		Res      Result
		Slots    []int
		Accepted []int // at each poll
		Next     int64
	}
	run := func(spec netlist.Spec, opts Options, anneal func(*placer, *rand.Rand)) (outcome, int) {
		var p *placer
		var out outcome
		ctx := probeCtx{context.Background(), func() { out.Accepted = append(out.Accepted, p.res.MovesAccepted) }}
		p, rng := newPlacer(ctx, netlist.Generate(lib(), spec), opts)
		anneal(p, rng)
		out.Res, out.Slots, out.Next = p.finish(), p.g.slotOf, rng.Int63()
		return out, p.boundDecided
	}
	for _, spec := range []netlist.Spec{netlist.PulpinoProxy(1), mid3k} {
		for _, opts := range []Options{
			{Seed: 1},
			{Seed: 2, Partitions: 2},
			{Seed: 3, Partitions: 2, ResampleCrossRegion: true},
		} {
			opts.Moves = 60 * (spec.NumComb + spec.NumFFs)
			want, _ := run(spec, opts, annealSerialRef)
			got, tally := run(spec, opts, (*placer).annealSerial)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: serial engine diverged from the reference loop:\n got %+v next %d\nwant %+v next %d",
					spec.Name, opts, got.Res, got.Next, want.Res, want.Next)
			}
			if tally == 0 {
				t.Fatalf("%s %+v: no proposal was decided by the bound", spec.Name, opts)
			}
		}
	}
}

// TestBoundDecidesMostProposals guards against a silently disabled fast
// path: at flow length the bound alone must settle at least half of the
// tried proposals, in both engines.
func TestBoundDecidesMostProposals(t *testing.T) {
	for _, workers := range []int{0, 1} {
		n := netlist.Generate(lib(), netlist.PulpinoProxy(1))
		res, tally := placeTally(n, Options{Seed: 1, Moves: 60 * n.NumCells(), Workers: workers})
		t.Logf("workers=%d: %d of %d tried proposals decided by the bound", workers, tally, res.MovesTried)
		if 2*tally < res.MovesTried {
			t.Fatalf("workers=%d: only %d of %d tried proposals decided by the bound", workers, tally, res.MovesTried)
		}
	}
}
