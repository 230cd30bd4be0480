package place

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/num"
)

// appendPins appends every pin instance of a non-clock net, repeats
// included, straight from the netlist (the placer's cost ignores clock
// nets: none).
func appendPins(buf []int, n *netlist.Netlist, nid int) []int {
	net := &n.Nets[nid]
	if net.IsClock {
		return buf
	}
	if net.Driver >= 0 {
		buf = append(buf, net.Driver)
	}
	for _, s := range net.Sinks {
		buf = append(buf, s.Inst)
	}
	return buf
}

// freshSpan is the reference span of a net with the given pins: float
// min/max over their slot-centre coordinates, as Netlist.HPWL computes it.
func freshSpan(g *grid, pins []int) float64 {
	if len(pins) == 0 {
		return 0
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, inst := range pins {
		x, y := g.coords(g.slotOf[inst])
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	return (maxX - minX) + (maxY - minY)
}

// twoExtremes tracks the two smallest and two largest of the values added:
// the scalar specification of one axis of a net record. A missing value is
// noLo or noHi, which lose every min and max against a coordinate.
type twoExtremes struct{ lo1, lo2, hi2, hi1 int16 }

const (
	noLo = math.MaxInt16
	noHi = -1
)

var noExtremes = twoExtremes{noLo, noLo, noHi, noHi}

func (e *twoExtremes) add(v int16) {
	switch {
	case v < e.lo1:
		e.lo1, e.lo2 = v, e.lo1
	case v < e.lo2:
		e.lo2 = v
	}
	switch {
	case v > e.hi1:
		e.hi1, e.hi2 = v, e.hi1
	case v > e.hi2:
		e.hi2 = v
	}
}

// freshExt is the reference extremes per axis and the instance count of net
// nid with the given pins, each instance taken once. stamp has one entry
// per instance and is shared by the calls of one check.
func freshExt(g *grid, nid int, pins, stamp []int) (c, r twoExtremes, insts int) {
	c, r = noExtremes, noExtremes
	for _, inst := range pins {
		if stamp[inst] == nid+1 {
			continue
		}
		stamp[inst] = nid + 1
		insts++
		slot := g.slotOf[inst]
		c.add(int16(slot % g.cols))
		r.add(int16(slot / g.cols))
	}
	return c, r, insts
}

// word4 assembles a lane word from four lane values.
func word4(l0, l1, l2, l3 int) uint64 {
	return uint64(l0) | uint64(l1)<<16 | uint64(l2)<<32 | uint64(l3)<<48
}

// lanes4 is word4's inverse.
func lanes4(w uint64) [4]int {
	return [4]int{int(w & 0xffff), int(w >> 16 & 0xffff), int(w >> 32 & 0xffff), int(w >> 48)}
}

// posWord is the word of a slot, spelled out.
func posWord(g *grid, slot int) uint64 {
	c, r := slot%g.cols, slot/g.cols
	return word4(c, r, len(g.colX)-1-c, len(g.rowY)-1-r)
}

// pack builds the record words the scalar extremes stand for: low edges as
// they are, high edges complemented against the last column and row, a
// missing value as the 0x7fff sentinel.
func pack(g *grid, c, r twoExtremes) (a, b uint64) {
	lo := func(v int16) int { return int(v) } // noLo is the sentinel itself
	hi := func(last int, v int16) int {
		if v == noHi {
			return 0x7fff
		}
		return last - int(v)
	}
	cm, rm := len(g.colX)-1, len(g.rowY)-1
	return word4(lo(c.lo1), lo(r.lo1), hi(cm, c.hi1), hi(rm, r.hi1)),
		word4(lo(c.lo2), lo(r.lo2), hi(cm, c.hi2), hi(rm, r.hi2))
}

// checkKernelState verifies the evaluator's incremental state against a
// from-scratch rebuild: grid maps are inverse, pos is the word of slotOf,
// every cached record equals the packed fresh scan over the net's distinct
// instances, and every cached span is bit-equal to the span of that box.
func checkKernelState(t testing.TB, p *placer) {
	t.Helper()
	g := p.g
	for inst, slot := range g.slotOf {
		if g.instAt[slot] != inst {
			t.Fatalf("inst %d: slotOf=%d but instAt[%d]=%d", inst, slot, slot, g.instAt[slot])
		}
		if want := posWord(g, slot); g.pos[inst] != want {
			t.Fatalf("inst %d: pos=%#x, slot %d packs to %#x", inst, g.pos[inst], slot, want)
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
	stamp := make([]int, len(g.slotOf))
	var pins []int
	for nid, rec := range p.net {
		pins = appendPins(pins[:0], p.n, nid)
		c, r, insts := freshExt(g, nid, pins, stamp)
		a, b := pack(g, c, r)
		if rec.a != a || rec.b != b || len(p.pins.Of(nid)) != insts {
			t.Fatalf("net %d: cached extremes %#x %#x over %d instances, fresh scan %#x %#x (cols %+v rows %+v) over %d",
				nid, rec.a, rec.b, len(p.pins.Of(nid)), a, b, c, r, insts)
		}
		box := 0.0
		if insts > 0 {
			box = (g.colX[c.hi1] - g.colX[c.lo1]) + (g.rowY[r.hi1] - g.rowY[r.lo1])
		}
		for _, span := range [2]float64{box, freshSpan(g, pins)} {
			if math.Float64bits(rec.span) != math.Float64bits(span) {
				t.Fatalf("net %d: cached span %v, span of its box %v", nid, rec.span, span)
			}
		}
	}
}

// affectedNets lists the nets a swap of inst with other (-1 or inst: none)
// touches, in the evaluator's documented order: inst's, then other's not
// already listed.
func affectedNets(p *placer, inst, other int) []int32 {
	aff := slices.Clone(p.inc.Of(inst))
	if other >= 0 && other != inst {
		for _, nid := range p.inc.Of(other) {
			if !slices.Contains(aff, nid) {
				aff = append(aff, nid)
			}
		}
	}
	return aff
}

// refDelta is the reference move evaluator: make the swap, recompute every
// affected net from scratch, sum in the documented order, undo. It reads
// the grid maps only, never the cached records.
func refDelta(p *placer, inst, slot int) (float64, int) {
	g := p.g
	other, old := g.instAt[slot], g.slotOf[inst]
	aff := affectedNets(p, inst, other)
	var pins []int
	sum := func() (s float64) {
		for _, nid := range aff {
			pins = appendPins(pins[:0], p.n, int(nid))
			s += freshSpan(g, pins)
		}
		return s
	}
	before := sum()
	if other != inst { // own slot: nothing moves
		swap(g, inst, slot)
	}
	after := sum()
	if other != inst {
		swap(g, inst, old) // the occupant, if any, returns too
	}
	return after - before, 2 * len(aff)
}

// serialKernel is what annealSerialWith is parameterised by.
type serialKernel struct {
	delta   func(inst, slot int) (float64, int)
	accepts func(rng *num.SplitMix, d, temp float64) bool
	commit  func(inst, slot int)
}

// engineKernel is the placer's own evaluator.
func engineKernel(p *placer) serialKernel {
	return serialKernel{p.delta, accepts, p.commit}
}

// referenceKernel evaluates from scratch, applies the textbook Metropolis
// test and commits by swapping alone (nothing it uses reads the caches).
func referenceKernel(p *placer) serialKernel {
	return serialKernel{
		delta:   func(inst, slot int) (float64, int) { return refDelta(p, inst, slot) },
		accepts: func(rng *num.SplitMix, d, temp float64) bool { return d <= 0 || rng.Float64() < math.Exp(-d/temp) },
		commit:  func(inst, slot int) { swap(p.g, inst, slot) },
	}
}

// annealSerialWith is anneal's loop, verbatim, over a given kernel.
func annealSerialWith(p *placer, rng *num.SplitMix, k serialKernel) {
	t0, cool := p.schedule(rng)
	numCells, proposals := p.n.NumCells(), p.opts.Moves/stepsPerProposal
	in := rect{0, 0, p.g.cols - 1, len(p.g.rowY) - 1}
	for m, temp := 0, t0; m < proposals; m, temp = m+1, temp*cool {
		if m&(abortCheckMoves-1) == 0 {
			if p.ctx.Err() != nil {
				p.aborted = true
				return
			}
			p.rc, p.rr = p.reach(startFrac * temp / t0)
		}
		inst := rng.Intn(numCells)
		if p.partitioned {
			in = p.region[p.part[inst]]
		}
		slot := p.g.target(rng.Uint64(), inst, in, p.rc, p.rr)
		if slot < 0 {
			continue
		}
		p.res.MovesTried++
		d, cost := k.delta(inst, slot)
		p.res.RuntimeProxy += cost
		if k.accepts(rng, d, temp) {
			k.commit(inst, slot)
			p.res.MovesAccepted++
		}
	}
}

// layouts are the shapes the per-commit and per-poll checks run over.
var layouts = []struct {
	name string
	opts Options
}{
	{"flat", Options{}},
	{"p2", Options{Partitions: 2}},
	{"p3", Options{Partitions: 3}},
}

// TestKernelStateAfterAnneal runs every layout to the end (or to a
// cancellation) and checks the cached state it leaves behind. The case
// names predate the deleted parallel engines: "speculative" sets the
// deprecated Workers field, and must stop where Workers 0 stops.
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
		{"speculative/partitioned", Options{Seed: 4, Workers: 2, Partitions: 2}, background, false},
		{"serial/aborted", Options{Seed: 5}, cancelAfter(3), true},
		{"speculative/aborted", Options{Seed: 6, Workers: 2}, cancelAfter(4), true},
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
			if p.res.MovesAccepted == 0 || p.pinsScanned == 0 {
				t.Fatalf("no move committed before the check: %d accepted, %d pins scanned", p.res.MovesAccepted, p.pinsScanned)
			}
			checkKernelState(t, p)
			if tc.opts.Workers == 0 {
				return
			}
			// The same anneal — cancelled at the same poll — at Workers 0:
			// counters and the pin tally must not move.
			opts := tc.opts
			opts.Workers = 0
			q, rng := newPlacer(tc.ctx(), netlist.Generate(lib(), netlist.Artificial(9)), opts)
			q.anneal(rng)
			if q.res != p.res || q.pinsScanned != p.pinsScanned {
				t.Fatalf("Workers 0: result %+v / %d pins scanned, Workers %d: %+v / %d",
					q.res, q.pinsScanned, tc.opts.Workers, p.res, p.pinsScanned)
			}
		})
	}
}

// TestSerialCommitKeepsKernelState drives short anneals through anneal's
// own loop over the engine's kernel and checks the whole
// cached state after every commit: a net left unscanned, or scanned before
// the swap, shows up at the move that did it.
func TestSerialCommitKeepsKernelState(t *testing.T) {
	for _, spec := range []netlist.Spec{netlist.Tiny(2), netlist.Artificial(9), mid3k} {
		for _, layout := range layouts {
			t.Run(spec.Name+"/"+layout.name, func(t *testing.T) {
				n := netlist.Generate(lib(), spec)
				opts := layout.opts
				opts.Seed, opts.Moves = 7, min(6*n.NumCells(), 1500)
				p, rng := newPlacer(context.Background(), n, opts)
				k := engineKernel(p)
				k.commit = func(inst, slot int) {
					p.commit(inst, slot)
					checkKernelState(t, p)
				}
				annealSerialWith(p, rng, k)
				if p.res.MovesAccepted < opts.Moves/stepsPerProposal/5 {
					t.Fatalf("only %d commits checked", p.res.MovesAccepted)
				}
				// The loop is the engine's: same Result from anneal.
				q, rng := newPlacer(context.Background(), netlist.Generate(lib(), spec), opts)
				q.anneal(rng)
				if q.res != p.res || q.pinsScanned != p.pinsScanned {
					t.Fatalf("anneal: %+v / %d pins scanned, the checked loop: %+v / %d", q.res, q.pinsScanned, p.res, p.pinsScanned)
				}
			})
		}
	}
}

// placeTally is Place plus the private tally of pin positions scanned.
func placeTally(n *netlist.Netlist, opts Options) (Result, int) {
	p, rng := newPlacer(context.Background(), n, opts)
	p.anneal(rng)
	return p.finish(), p.pinsScanned
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

// shapeNames are the proposal shapes a differential run must exercise.
var shapeNames = []string{
	"empty target slot", "own slot", "occupant shares a net",
	"net with one instance", "net with two instances", "net in one column or row",
	"mover on both edges of a net", "mover pins a net twice",
}

// proposalShapes counts, by shapeNames entry, the proposals noted.
type proposalShapes map[string]int

func (s proposalShapes) note(p *placer, inst, slot int) {
	met := map[string]bool{}
	other := p.g.instAt[slot]
	met["empty target slot"] = other < 0
	met["own slot"] = other == inst
	met["occupant shares a net"] = other >= 0 && other != inst && len(affectedNets(p, inst, other)) < len(p.inc.Of(inst))+len(p.inc.Of(other))
	at, last := lanes4(p.g.pos[inst]), [2]int{len(p.g.colX) - 1, len(p.g.rowY) - 1}
	for _, nid := range p.inc.Of(inst) {
		box, insts := lanes4(p.net[nid].a), len(p.pins.Of(int(nid)))
		// Per axis: the box is one coordinate wide; the mover is on both edges.
		var flat, both bool
		for axis := range last {
			lo, hi := box[axis], last[axis]-box[axis+2]
			flat = flat || lo == hi
			both = both || lo == hi && lo == at[axis]
		}
		pinsOfInst := 0
		for _, pin := range appendPins(nil, p.n, int(nid)) {
			if pin == inst {
				pinsOfInst++
			}
		}
		for name, ok := range map[string]bool{
			"net with one instance":        insts == 1,
			"net with two instances":       insts == 2,
			"net in one column or row":     insts > 1 && flat,
			"mover on both edges of a net": insts > 1 && both,
			"mover pins a net twice":       pinsOfInst > 1,
		} {
			met[name] = met[name] || ok
		}
	}
	for name, ok := range met {
		if ok {
			s[name]++
		}
	}
}

func (s proposalShapes) missing() string {
	var out []string
	for _, name := range shapeNames {
		if s[name] == 0 {
			out = append(out, name)
		}
	}
	return strings.Join(out, ", ")
}

// TestEvalDeltaMatchesRealSwap is the differential test of the move
// evaluator: for random proposals of every shape, delta must equal — on
// the float bits — the change measured over the affected nets across a
// real swap, by refDelta and by Netlist.HPWL. A quarter of the proposals
// stay committed so later ones see incrementally maintained records. The
// pulpino cases start from a placement taken hot (the scatter), half-way
// down the schedule and frozen, flat and partitioned: an annealed placement
// has tight boxes, tied extremes and neighbours sharing nets where a
// scatter has few.
func TestEvalDeltaMatchesRealSwap(t *testing.T) {
	pulpino := netlist.PulpinoProxy(3)
	moves := 60 * (pulpino.NumComb + pulpino.NumFFs)
	polls := (moves/stepsPerProposal + abortCheckMoves - 1) / abortCheckMoves
	cancelAt := func(poll int) func() context.Context {
		return func() context.Context { return &countdownCtx{Context: context.Background(), left: poll} }
	}
	type deltaCase struct {
		name string
		spec netlist.Spec
		opts Options
		ctx  func() context.Context
	}
	cases := []deltaCase{
		{"artificial", netlist.Artificial(4), Options{}, cancelAt(0)},
		{"narrow", narrowSpec, Options{}, cancelAt(0)},
	}
	for _, st := range []struct {
		name string
		ctx  func() context.Context
	}{{"hot", cancelAt(0)}, {"mid", cancelAt(polls / 2)}, {"frozen", context.Background}} {
		cases = append(cases,
			deltaCase{st.name + "/flat", pulpino, Options{Moves: moves}, st.ctx},
			deltaCase{st.name + "/partitioned", pulpino, Options{Moves: moves, Partitions: 2}, st.ctx})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := netlist.Generate(lib(), tc.spec)
			tc.opts.Seed = 3
			p, annealRng := newPlacer(tc.ctx(), n, tc.opts)
			p.anneal(annealRng)
			rng := rand.New(rand.NewSource(99))
			twice, lone := oddInstances(t, p)
			sumHPWL := func(nets []int32) (s float64) {
				for _, nid := range nets {
					s += n.HPWL(int(nid))
				}
				return s
			}
			shapes := proposalShapes{}
			for i := 0; i < 20000; i++ {
				inst, slot := rng.Intn(n.NumCells()), rng.Intn(len(p.g.instAt))
				switch i % 8 {
				case 1:
					slot = p.g.slotOf[inst]
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
				other := p.g.instAt[slot]
				shapes.note(p, inst, slot)

				got := checkDelta(t, p, inst, slot)
				if other == inst {
					continue // own slot: nothing to commit
				}
				oldSlot := p.g.slotOf[inst]
				if i%8 == 0 { // O(cells) per proposal: a sample is enough
					aff := affectedNets(p, inst, other)
					applyCoords(n, p.g)
					before := sumHPWL(aff)
					swap(p.g, inst, slot)
					applyCoords(n, p.g)
					swap(p.g, inst, oldSlot)
					if hpwl := sumHPWL(aff) - before; math.Float64bits(got) != math.Float64bits(hpwl) {
						t.Fatalf("proposal %d (inst %d -> slot %d, occupant %d): delta %v, Netlist.HPWL across the swap %v", i, inst, slot, other, got, hpwl)
					}
				}
				p.commit(inst, slot)
				if i%4 != 0 {
					p.commit(inst, oldSlot) // undo: the occupant, if any, returns too
				}
				if i%500 == 0 {
					checkKernelState(t, p)
				}
			}
			if missing := shapes.missing(); missing != "" {
				t.Fatalf("proposal shapes not exercised: %s (%v)", missing, shapes)
			}
			checkKernelState(t, p)
		})
	}
}

// checkDelta holds delta to refDelta on one proposal — the float bits and
// the cost — and to visiting no pin; it returns the delta.
func checkDelta(t testing.TB, p *placer, inst, slot int) float64 {
	t.Helper()
	scanned := p.pinsScanned
	got, cost := p.delta(inst, slot)
	if p.pinsScanned != scanned {
		t.Fatalf("inst %d -> slot %d: evaluating scanned %d pins", inst, slot, p.pinsScanned-scanned)
	}
	want, wantCost := refDelta(p, inst, slot)
	if math.Float64bits(got) != math.Float64bits(want) || cost != wantCost {
		t.Fatalf("inst %d -> slot %d (occupant %d): delta %v (%x) cost %d, reference %v (%x) cost %d",
			inst, slot, p.g.instAt[slot], got, math.Float64bits(got), cost, want, math.Float64bits(want), wantCost)
	}
	return got
}

// narrowSpec places on a grid a few columns wide, where nets with all
// their pins in one column, and movers on both edges of one, are common.
var narrowSpec = netlist.Spec{Name: "narrow", Seed: 6, NumComb: 40, NumFFs: 6, Levels: 4, Locality: 0.6, NumPIs: 4, ClockPeriodPs: 1500}

// oddInstances lists the instances pinning one (non-clock) net more than
// once, and those that are the only instance of a net.
func oddInstances(t *testing.T, p *placer) (twice, lone []int) {
	t.Helper()
	var pins []int
	for nid := range p.n.Nets {
		pins = appendPins(pins[:0], p.n, nid)
		for k, inst := range pins {
			if slices.Contains(pins[:k], inst) {
				twice = append(twice, inst)
			}
		}
		if insts := p.pins.Of(nid); len(insts) == 1 {
			lone = append(lone, int(insts[0]))
		}
	}
	if len(twice) == 0 || len(lone) == 0 {
		t.Fatalf("design has %d double-pinning instances and %d one-instance nets, want both", len(twice), len(lone))
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

// rawNet is a hand-made net: its pin instances, driver first, repeats
// allowed.
type rawNet struct {
	pins  []int
	clock bool
}

// rawPlacer builds the kernel state for a hand-made netlist on a
// cols x rows grid with instance i in slots[i].
func rawPlacer(cols, rows int, slots []int, nets []rawNet) *placer {
	n := &netlist.Netlist{Insts: make([]netlist.Instance, len(slots)), ClockNet: -1}
	for id, raw := range nets {
		net := netlist.Net{ID: id, Driver: -1, IsClock: raw.clock}
		for k, inst := range raw.pins {
			if k == 0 {
				net.Driver = inst
			} else {
				net.Sinks = append(net.Sinks, netlist.PinRef{Inst: inst, Pin: k - 1})
			}
		}
		n.Nets = append(n.Nets, net)
	}
	g := &grid{
		cols:   cols,
		slotOf: slices.Clone(slots),
		instAt: make([]int, cols*rows),
		pos:    make([]uint64, len(slots)),
		colX:   make([]float64, cols),
		rowY:   make([]float64, rows),
	}
	for c := range g.colX {
		g.colX[c] = (float64(c) + 0.5) * 0.7
	}
	for r := range g.rowY {
		g.rowY[r] = (float64(r) + 0.5) * 1.3
	}
	for s := range g.instAt {
		g.instAt[s] = -1
	}
	for inst, s := range slots {
		g.instAt[s] = inst
		g.pos[inst] = g.word(s)
	}
	p := &placer{n: n, g: g, ctx: context.Background()}
	p.initNets()
	p.rescanAll()
	return p
}

// TestDoubledBoundaryPin: NetPins keeps an instance that pins a net twice
// twice, and second extremes over pins would then name the instance's own
// other pin as the runner-up, leaving the box unshrunk when it moves away.
// Here the only pin on the net's left edge is such a doubled one.
func TestDoubledBoundaryPin(t *testing.T) {
	// One row of 8 slots; instance 0 (column 0) drives the net and is also
	// one of its sinks; instances 1 and 2 sit in columns 3 and 5.
	p := rawPlacer(8, 1, []int{0, 3, 5}, []rawNet{{pins: []int{0, 1, 0, 2}}})
	checkKernelState(t, p)
	if got := p.pins.Of(0); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("net lists instances %v, want each once", got)
	}
	a, b := pack(p.g, twoExtremes{0, 3, 3, 5}, twoExtremes{0, 0, 0, 0})
	if rec := p.net[0]; rec.a != a || rec.b != b {
		t.Fatalf("extremes %#x %#x, want columns 0 3 | 3 5 in row 0: %#x %#x", rec.a, rec.b, a, b)
	}
	// 0 -> column 4: the box shrinks from [0,5] to [3,5].
	got, _ := p.delta(0, 4)
	want, _ := refDelta(p, 0, 4)
	if shrink := p.g.colX[3] - p.g.colX[0]; got != want || math.Abs(got+shrink) > 1e-12 {
		t.Fatalf("delta %v, reference %v, want the box to shrink by %v", got, want, shrink)
	}
	p.commit(0, 4)
	checkKernelState(t, p)
}

// TestLatticeLimit: lanes are 15 bits wide, so a grid past 32 767 columns
// or rows is refused before anything is allocated for it; on the largest
// grids it admits, one row and one column, the evaluator still agrees with
// the reference where lane values reach 0x7ffe.
func TestLatticeLimit(t *testing.T) {
	for _, ok := range [][2]int{{1, 1}, {maxLattice, 1}, {1, maxLattice}, {maxLattice, maxLattice}} {
		if err := checkLattice(ok[0], ok[1]); err != nil {
			t.Fatalf("%d x %d refused: %v", ok[0], ok[1], err)
		}
	}
	for _, bad := range [][2]int{{maxLattice + 1, 1}, {1, maxLattice + 1}, {1 << 20, 1 << 20}} {
		if err := checkLattice(bad[0], bad[1]); err == nil || !strings.Contains(err.Error(), "32767") {
			t.Fatalf("%d x %d: error %v, want a refusal naming the limit", bad[0], bad[1], err)
		}
	}
	const last = maxLattice - 1
	for _, dim := range [][2]int{{maxLattice, 1}, {1, maxLattice}} {
		// Instances on both ends, beside them and in the middle; nets over
		// the ends, over one end and a neighbour, and a one-instance net.
		p := rawPlacer(dim[0], dim[1], []int{0, last, 1, last - 1, 0x4000}, []rawNet{
			{pins: []int{0, 1}}, {pins: []int{0, 2, 4}}, {pins: []int{1, 3, 4, 1}}, {pins: []int{4}}, {pins: []int{2, 3}},
		})
		checkKernelState(t, p)
		if a := lanes4(p.net[0].a); max(a[0], a[1]) != 0 || max(a[2], a[3]) != 0 {
			t.Fatalf("%d x %d: net over both ends has box %v, want every lane 0", dim[0], dim[1], a)
		}
		if pos := lanes4(p.g.pos[0]); max(pos[2], pos[3]) != last {
			t.Fatalf("%d x %d: slot 0 packs to %v, want a lane at %#x", dim[0], dim[1], pos, last)
		}
		for _, mv := range [][2]int{{0, last}, {0, 2}, {4, last - 2}, {4, 0}, {1, 0x3fff}, {3, 1}, {2, last}, {0, 0}} {
			checkDelta(t, p, mv[0], mv[1])
			p.commit(mv[0], mv[1])
			checkKernelState(t, p)
		}
	}
}

// laneSpecials are the lane values past the small domain: both sides of
// bit 14, the largest coordinates, and the sentinel of a missing runner-up.
var laneSpecials = []int{0x3fff, 0x4000, 0x7ffd, 0x7ffe, 0x7fff}

// TestMovedLanes pins the lane arithmetic to its scalar meaning in every
// lane: moved is min(f == a ? b : a, t) and merge is (min(a, w), min(b,
// max(a, w))), over every combination of a small domain and laneSpecials.
// The four lanes of a case hold four different combinations, so a carry or
// borrow crossing a lane boundary cannot hide behind equal neighbours.
func TestMovedLanes(t *testing.T) {
	vals := append([]int{0, 1, 2, 3, 4, 5}, laneSpecials...)
	n := len(vals)
	total := n * n * n * n
	// combo decodes case i into one lane's (a, b, f, t).
	combo := func(i int) (a, b, f, t int) {
		i %= total
		return vals[i%n], vals[i/n%n], vals[i/n/n%n], vals[i/n/n/n]
	}
	// Lane k runs the cases at a stride coprime to total, from its own start.
	strides, starts := [4]int{1, 7, 29, 101}, [4]int{0, total / 3, total / 2, total - 5}
	for _, s := range strides {
		g, r := total, s
		for r != 0 {
			g, r = r, g%r
		}
		if g != 1 {
			t.Fatalf("stride %d shares a factor with %d cases: lane misses some", s, total)
		}
	}
	for i := 0; i < total; i++ {
		var a, b, f, to, w [4]int
		var wantMoved, wantA, wantB [4]int
		for k := range a {
			a[k], b[k], f[k], to[k] = combo(starts[k] + i*strides[k])
			w[k] = f[k] // merge's third operand
			first := a[k]
			if f[k] == a[k] {
				first = b[k]
			}
			wantMoved[k] = min(first, to[k])
			wantA[k], wantB[k] = min(a[k], w[k]), min(b[k], max(a[k], w[k]))
		}
		pk := func(l [4]int) uint64 { return word4(l[0], l[1], l[2], l[3]) }
		if got := lanes4(moved(pk(a), pk(b), pk(f), pk(to))); got != wantMoved {
			t.Fatalf("moved(a=%x b=%x f=%x t=%x) = %x, want %x", a, b, f, to, got, wantMoved)
		}
		gotA, gotB := merge(pk(a), pk(b), pk(w))
		if lanes4(gotA) != wantA || lanes4(gotB) != wantB {
			t.Fatalf("merge(a=%x b=%x w=%x) = %x %x, want %x %x", a, b, w, lanes4(gotA), lanes4(gotB), wantA, wantB)
		}
	}
}

// TestAcceptsMatchesMetropolis: accepts decides and draws like the textbook
// test on twin streams, at temperatures on both sides of what the
// polynomial in front of math.Exp can settle.
func TestAcceptsMatchesMetropolis(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ref, got := num.NewSplitMix(18), num.NewSplitMix(18)
	var accepted, rejected int
	for i := 0; i < 200000; i++ {
		d := (rng.Float64() - 0.3) * 40
		if i%100 == 0 {
			d = 0
		}
		temp := math.Abs(d)*[]float64{0.02, 0.2, 1, 5, 50}[i%5] + 1e-9
		want := d <= 0 || ref.Float64() < math.Exp(-d/temp)
		if acc := accepts(got, d, temp); acc != want {
			t.Fatalf("d=%v temp=%v: accepted=%v, reference %v", d, temp, acc, want)
		}
		if ref.Uint64() != got.Uint64() {
			t.Fatalf("d=%v temp=%v: the two accept tests drew differently", d, temp)
		}
		if d > 0 && want {
			accepted++
		} else if d > 0 {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("uphill coins: %d accepted, %d rejected; want both", accepted, rejected)
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

// TestSerialAnnealMatchesReference runs the serial engine beside the same
// loop over the reference kernel — every proposal measured across a real
// swap, the textbook Metropolis test: the same accepted count at every
// cancellation poll (every abortCheckMoves proposals), the same Result and placement, and
// the same next draw from the stream — so no decision and no draw differed.
func TestSerialAnnealMatchesReference(t *testing.T) {
	type outcome struct {
		Res      Result
		Slots    []int
		Accepted []int // at each poll
		Next     uint64
	}
	run := func(spec netlist.Spec, opts Options, anneal func(*placer, *num.SplitMix)) outcome {
		var p *placer
		var out outcome
		ctx := probeCtx{context.Background(), func() { out.Accepted = append(out.Accepted, p.res.MovesAccepted) }}
		p, rng := newPlacer(ctx, netlist.Generate(lib(), spec), opts)
		anneal(p, rng)
		out.Res, out.Slots, out.Next = p.finish(), p.g.slotOf, rng.Uint64()
		return out
	}
	for _, spec := range []netlist.Spec{netlist.PulpinoProxy(1), mid3k} {
		for _, opts := range []Options{
			{Seed: 1},
			{Seed: 2, Partitions: 2},
			{Seed: 3, Partitions: 3},
		} {
			opts.Moves = 60 * (spec.NumComb + spec.NumFFs)
			want := run(spec, opts, func(p *placer, rng *num.SplitMix) { annealSerialWith(p, rng, referenceKernel(p)) })
			got := run(spec, opts, (*placer).anneal)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: serial engine diverged from the reference loop:\n got %+v next %d\nwant %+v next %d",
					spec.Name, opts, got.Res, got.Next, want.Res, want.Next)
			}
		}
	}
}
