// Package place implements standard-cell placement: a global step, then
// simulated annealing as the detailed placer.
//
// Placement is a substrate for the paper's experiments in two ways: its
// result drives routing congestion (and therefore the DRV convergence
// behaviour of Fig. 9), and its annealing cost landscape exhibits the
// "big valley" structure that adaptive multistart (Fig. 6(b)) and
// go-with-the-winners (Fig. 6(a)) exploit. A partitioned mode supports
// the "many more small subproblems" ablation of Fig. 4(b).
//
// A placement runs in three steps, the order of DATC RDF and iEDA's iPL:
//
//   - the scatter: a seeded random permutation of the instances over the
//     slot lattice (buildGrid), which sets InitialHPWLUm and picks the basin;
//   - the global step (global.go): rounds of a linearised quadratic
//     wirelength solve and a spread back onto the lattice, whose last
//     spread is a legal placement, one instance per slot;
//   - the anneal, a short and cold detailed placer from there, which draws
//     every proposal from one stream and commits after each.
//
// A proposal offers an instance a slot from a window around its own, a few
// percent of the die at first and shrinking with the temperature (reach,
// target).
//
// The evaluator is built on flat state that lives on the slot lattice. A
// position is one 64-bit word of four 16-bit lanes, [col, row, cm-col,
// rm-row] with cm and rm the last column and row: the upper two lanes are
// complemented so that every edge of a bounding box is a minimum. Each
// instance has the word of its slot, and each net a record (netRec) of two
// such words — the lane-wise smallest and second smallest over its
// instances, i.e. its box and the runners-up of all four edges — plus its
// cached span in um. With the runners-up at hand the box of a net after
// one of its instances moves is known exactly without visiting a pin, all
// four edges in one pass of word arithmetic, so a proposal costs a few
// loads per affected net whatever the net's size; only a committed move
// rescans the nets it touched. Per-column / per-row coordinate tables turn
// a box into micrometres only when its span is summed. See DESIGN.md "Move
// evaluator" for why this is bit-identical to min/max over float
// coordinates.
package place

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/netlist"
	"repro/internal/num"
)

// Options are the placer knobs.
type Options struct {
	Seed int64
	// Moves is the budget in cooling steps of the schedule (default 120 *
	// numCells); a proposal spends stepsPerProposal of them.
	Moves       int
	Utilization float64 // die utilization (default 0.6)
	Partitions  int     // 1 = flat; k means k x k independent regions
	// Deprecated: Workers selected the territory-parallel annealer, which
	// is gone; Place ignores it. It stays until the benchmark harness
	// stops setting it (ROADMAP item 1(c)).
	Workers int
}

func (o Options) withDefaults(numCells int) Options {
	if o.Moves <= 0 {
		o.Moves = 120 * numCells
	}
	if o.Utilization <= 0 {
		o.Utilization = 0.6
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	return o
}

// Result reports placement quality and effort.
type Result struct {
	HPWLUm        float64
	InitialHPWLUm float64
	Width, Height float64
	MovesTried    int
	MovesAccepted int
	// MovesConflicted counted the proposals a retired engine discarded;
	// always 0. The field stays because recorded summaries name it.
	MovesConflicted int
	// BatchFinal was the retired engine's final batch size; always 0,
	// kept for the same reason as MovesConflicted.
	BatchFinal int
	// RuntimeProxy counts cost-function evaluations and the global step's
	// passes over the nets (globalPlace), a deterministic stand-in for
	// wall-clock TAT in the experiments.
	RuntimeProxy int
	// ParallelRuntimeProxy is the TAT assuming each partition region
	// anneals on its own machine (the Fig. 4(b) "many more small
	// subproblems" payoff); equals RuntimeProxy for flat placement.
	ParallelRuntimeProxy int
}

// Lane words. Coordinates are below 1<<15 (checkLattice), so bit 15 of
// every lane is spare and lane-wise compares borrow from it, never from a
// neighbour.
const (
	laneMax uint64 = 0x7fff_7fff_7fff_7fff // every lane at the sentinel
	laneTop uint64 = 0x8000_8000_8000_8000 // every lane's spare bit
	// maxLattice is the largest column or row count a lane can index; the
	// largest coordinate is one less, so the sentinel is no coordinate.
	maxLattice = 0x7fff
)

// netRec is a net's cached state: over the words of its distinct instances
// taken as a multiset, a holds each lane's smallest value and b its second
// smallest (two instances in one column give equal col lanes). a is the
// bounding box — [cLo, rLo, cm-cHi, rm-rHi] — and span its half-perimeter
// in um. A net with one instance has no runner-up: b is laneMax, which
// loses every min against a real coordinate. A pinless net is
// {laneMax, laneMax, 0}.
type netRec struct {
	a, b uint64
	span float64
}

// geMask is 0x7fff in the lanes where p >= t and 0 elsewhere.
func geMask(p, t uint64) uint64 {
	ge := ((p | laneTop) - t) & laneTop
	return ge - ge>>15
}

// laneMin is the lane-wise minimum.
func laneMin(p, t uint64) uint64 {
	return p ^ (p^t)&geMask(p, t)
}

// moved is the box of a net with record {a, b} once the one instance
// pinning it at f has moved to t — exact, and no pin is visited. Per lane
// the other instances reach f == a ? b : a (the record is over a multiset,
// so a second instance on f's coordinate keeps the edge where it is), and t
// is merged into that.
func moved(a, b, f, t uint64) uint64 {
	ne := ((a ^ f) + laneMax) & laneTop
	ne -= ne >> 15 // 0x7fff in the lanes where a != f
	return laneMin(b^(a^b)&ne, t)
}

// rect is a rectangle of slots, bounds inclusive; r1 < r0 is empty.
type rect struct{ c0, r0, c1, r1 int }

// grid is the slot structure used during annealing.
type grid struct {
	cols   int
	slotOf []int    // inst -> slot
	instAt []int    // slot -> inst or -1
	pos    []uint64 // inst -> word(slotOf[inst])
	// colX[c], rowY[r] are the slot-centre coordinates. Both are monotone
	// in their index, so the float min/max over a net's pins is the table
	// entry of the integer min/max.
	colX, rowY []float64
}

// word is a slot's position as lanes [col, row, cm-col, rm-row].
func (g *grid) word(slot int) uint64 {
	c, r := slot%g.cols, slot/g.cols
	return uint64(c) | uint64(r)<<16 | uint64(len(g.colX)-1-c)<<32 | uint64(len(g.rowY)-1-r)<<48
}

func (g *grid) coords(slot int) (x, y float64) {
	return g.colX[slot%g.cols], g.rowY[slot/g.cols]
}

// spanOf is the half-perimeter in um of the box in the lanes of m.
func (g *grid) spanOf(m uint64) float64 {
	cm, rm := len(g.colX)-1, len(g.rowY)-1
	return (g.colX[cm-int(m>>32&0xffff)] - g.colX[m&0xffff]) + (g.rowY[rm-int(m>>48)] - g.rowY[m>>16&0xffff])
}

// placer is the annealing state.
type placer struct {
	n    *netlist.Netlist
	opts Options
	g    *grid
	w, h float64
	res  Result

	inc netlist.Incidence
	// pins lists each net's distinct instances: an instance pinning a net
	// twice moves both pins at once, so second extremes over pins would
	// call its own other pin the runner-up. Clock nets, which the cost
	// ignores, have empty lists.
	pins netlist.NetPins

	// Cached per net: its extremes and the span of its box, so the "before"
	// cost of a move is one load and the "after" cost needs no pin.
	net []netRec

	part        []int // inst -> region, set by assignPartitions
	partitioned bool
	region      []rect // region -> the rectangle of its slots
	coarseProxy int
	rc, rr      int // the proposal window's half-width in columns and rows (reach)

	// pinsScanned counts the pin positions read to keep net current, by
	// commits. Kept out of Result, which is journaled and golden-pinned.
	pinsScanned int

	ctx     context.Context
	aborted bool
}

// Place runs simulated annealing on the netlist, mutating instance
// coordinates, and returns quality metrics.
func Place(n *netlist.Netlist, opts Options) Result {
	res, _ := PlaceCtx(context.Background(), n, opts)
	return res
}

// abortCheckMoves is how often, in proposals, the annealer polls for
// cancellation and resizes its window. A power of two so the poll is a
// mask, not a division; small enough that the flow's five proposals a cell
// give pulpino-proxy a dozen window sizes.
const abortCheckMoves = 512

// PlaceCtx is Place with cooperative cancellation: the anneal polls ctx
// between move blocks and bails out once it is cancelled (the global step
// before it runs to the end: ~22 ms on soc-proxy). The second
// return is false for an aborted anneal — its Result and the netlist's
// coordinates are then partial and must be discarded. Cancellation
// lets a campaign teardown or the stage watchdog reclaim the anneal
// early; an uncancelled run never aborts, so committed placements keep
// their bit-exact determinism.
func PlaceCtx(ctx context.Context, n *netlist.Netlist, opts Options) (Result, bool) {
	p, rng := newPlacer(ctx, n, opts)
	p.anneal(rng)
	return p.finish(), !p.aborted
}

// finish writes the annealed coordinates back to the netlist and
// completes the Result.
func (p *placer) finish() Result {
	applyCoords(p.n, p.g)
	p.res.HPWLUm = p.n.TotalHPWL()
	p.res.ParallelRuntimeProxy = p.res.RuntimeProxy
	if p.opts.Partitions > 1 {
		regions := p.opts.Partitions * p.opts.Partitions
		p.res.ParallelRuntimeProxy = p.coarseProxy + (p.res.RuntimeProxy-p.coarseProxy)/regions
	}
	return p.res
}

// newPlacer scatters the instances over a fresh grid — on math/rand, so a
// seed starts where it always has (InitialHPWLUm) — runs the global step
// from there, locks a partitioned run's regions, and returns the anneal's
// stream; the evaluator state is that of the global step's placement.
func newPlacer(ctx context.Context, n *netlist.Netlist, opts Options) (*placer, *num.SplitMix) {
	opts = opts.withDefaults(n.NumCells())

	w, h := netlist.DieSize(n, opts.Utilization)
	p := &placer{n: n, opts: opts, w: w, h: h, ctx: ctx}
	p.g = buildGrid(n, w, h, rand.New(num.NewRand(opts.Seed)))
	p.res = Result{Width: w, Height: h}

	applyCoords(n, p.g)
	p.res.InitialHPWLUm = n.TotalHPWL()
	p.initNets()
	p.globalPlace()
	if opts.Partitions > 1 {
		p.assignPartitions()
	}
	return p, num.NewSplitMix(num.Mix(opts.Seed, annealStream))
}

// initNets builds the per-net evaluator state; its records are zero until
// rescanAll (globalPlace's last step) fills them in.
func (p *placer) initNets() {
	numNets := len(p.n.Nets)
	p.inc = p.n.BuildIncidence()
	p.pins = netInstances(p.inc, numNets)
	p.net = make([]netRec, numNets)
}

// rescanAll recomputes every net record from the grid's placement.
func (p *placer) rescanAll() {
	for nid := range p.net {
		p.rescan(int32(nid))
	}
}

// checkLattice refuses a grid whose columns or rows a lane cannot index.
func checkLattice(cols, rows int) error {
	if cols > maxLattice || rows > maxLattice {
		return fmt.Errorf("place: %d x %d slot grid exceeds %d columns or rows", cols, rows, maxLattice)
	}
	return nil
}

// netInstances transposes inc: for each net the distinct instances that
// pin it, in ascending order.
func netInstances(inc netlist.Incidence, numNets int) netlist.NetPins {
	// off[nid+2] counts, then off[nid+1] is net nid's fill cursor, which
	// ends where net nid+1 starts.
	off := make([]int32, numNets+2)
	for _, nid := range inc.Nets {
		off[nid+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	insts := make([]int32, len(inc.Nets))
	for inst := 0; inst+1 < len(inc.Off); inst++ {
		for _, nid := range inc.Of(inst) {
			insts[off[nid+1]] = int32(inst)
			off[nid+1]++
		}
	}
	return netlist.NetPins{Off: off[:numNets+1], Inst: insts}
}

// The global start, the proposal window and the budget; none of it is a
// knob (DESIGN.md "Global start, window and budget" has the curves and the
// dead ends).
//
// An instance is offered a slot drawn uniformly from the rectangle of
// half-width R(f) = max(W, H) * sqrt(f) um around its own — per axis in
// slots, never under one — clipped to the die and its locked region, less
// the slot it sits in. f is startFrac * T/T0: the anneal starts from the
// global step's legal placement with a window of 7 % of the die, not the
// whole of it, and T0 = startTemp * the
// mean |delta| of 64 such window-sized moves, so the start temperature
// follows the start's quality. Every draw is a move to evaluate.
//
// Options.Moves counts cooling steps from T0 to T0/finalTempDiv, as ever, and
// an evaluated proposal spends stepsPerProposal of them: the flow's 60 steps
// a cell are five proposals a cell, a sixth of what a random start needed.
// HPWL, soc-proxy after synthesis, mean of seeds 1-3, relative to the flow
// before the global step (900 106 um): 8 steps a proposal 0.88x, 12 0.90x,
// with 1.5x the proposals for 8. startFrac 0.005 / 0.01 / 0.02 place
// alike (within 0.3 %) and accept 32 / 25 / 21 % of pulpino-proxy's
// proposals; startTemp 0.1 / 0.3 / 1.0 place 0.80x / 0.81x / 0.83x with
// seven global rounds. It is here and not in the callers so that a budget
// calibrated in Moves keeps its meaning.
//
// annealStream is the num.Mix index of the anneal's stream. Any index
// places alike; 4 was picked while two tests asserted on one small
// placement's coin flip (both sweep seeds now), and the golden file
// records it.
const (
	stepsPerProposal = 12
	finalTempDiv     = 2000
	startFrac        = 0.005
	startTemp        = 0.3
	annealStream     = 4
)

// reach is the window's half-width in columns and rows at frac of the
// die-wide schedule's T0: the whole die at 1.
func (p *placer) reach(frac float64) (rc, rr int) {
	r := max(p.w, p.h) * math.Sqrt(frac)
	return max(int(r/p.w*float64(p.g.cols)), 1), max(int(r/p.h*float64(len(p.g.rowY))), 1)
}

// target maps a 64-bit draw x to the slot inst is offered: uniform over
// the window of half-widths rc, rr around inst's slot clipped to in, less
// that slot; -1 when that leaves none (in is one slot).
func (g *grid) target(x uint64, inst int, in rect, rc, rr int) int {
	at := g.pos[inst]
	c, r := int(at&0xffff), int(at>>16&0xffff)
	c0, c1 := max(in.c0, c-rc), min(in.c1, c+rc)
	r0, r1 := max(in.r0, r-rr), min(in.r1, r+rr)
	w := c1 - c0 + 1
	others := w*(r1-r0+1) - 1
	if others <= 0 {
		return -1
	}
	hi, _ := bits.Mul64(x, uint64(others))
	k := int(hi) // uniform in [0, others), as num.SplitMix.Intn draws
	if k >= (r-r0)*w+c-c0 {
		k++ // step over inst's own slot
	}
	return (r0+k/w)*g.cols + c0 + k%w
}

// anneal is the detailed placer: it commits every accepted move before it
// draws the next. A netlist without cells has no proposal to draw: zero
// moves.
func (p *placer) anneal(rng *num.SplitMix) {
	numCells := p.n.NumCells()
	if numCells == 0 {
		return
	}
	t0, cool := p.schedule(rng)
	proposals := p.opts.Moves / stepsPerProposal
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
			continue // a region of one slot: the step is burned
		}
		p.res.MovesTried++
		d, cost := p.delta(inst, slot)
		p.res.RuntimeProxy += cost
		if accepts(rng, d, temp) {
			p.commit(inst, slot)
			p.res.MovesAccepted++
		}
	}
}

// schedule samples the initial temperature (startTemp times the mean
// |delta| of moves drawn from the start window) and derives the geometric
// cooling factor per proposal. A draw with no slot to offer counts as 0.
func (p *placer) schedule(rng *num.SplitMix) (t0, cool float64) {
	var sum float64
	const samples = 64
	rc, rr := p.reach(startFrac)
	in := rect{0, 0, p.g.cols - 1, len(p.g.rowY) - 1}
	for i := 0; i < samples; i++ {
		inst := rng.Intn(p.n.NumCells())
		if p.partitioned {
			in = p.region[p.part[inst]]
		}
		slot := p.g.target(rng.Uint64(), inst, in, rc, rr)
		if slot < 0 {
			continue
		}
		d, cost := p.delta(inst, slot)
		p.res.RuntimeProxy += cost
		sum += math.Abs(d)
	}
	t0 = startTemp*sum/samples + 1e-9
	return t0, math.Pow(1.0/finalTempDiv, 1/float64(p.opts.Moves/stepsPerProposal))
}

// Partitioned mode runs the global step flat as the coarse pass (global
// optimization places connected cells near each other), then locks each
// instance into the region it landed in and anneals within regions only —
// the "RTL partition and floorplan co-optimization" shape of Fig. 4(b),
// where the small subproblems can be solved in parallel.
func (p *placer) assignPartitions() {
	p.part = make([]int, p.n.NumCells())
	for inst := range p.part {
		p.part[inst] = p.regionOfSlot(p.g.slotOf[inst])
	}
	p.partitioned = true
	p.coarseProxy = p.res.RuntimeProxy
	// regionOfSlot is monotone in column and row: a region is a column range
	// times a row range, the bounding box of its slots.
	p.region = make([]rect, p.opts.Partitions*p.opts.Partitions)
	for i := range p.region {
		p.region[i] = rect{maxLattice, maxLattice, -1, -1}
	}
	for slot := range p.g.instAt {
		b := &p.region[p.regionOfSlot(slot)]
		c, r := slot%p.g.cols, slot/p.g.cols
		*b = rect{min(b.c0, c), min(b.r0, r), max(b.c1, c), max(b.r1, r)}
	}
}

func (p *placer) regionOfSlot(slot int) int {
	if p.opts.Partitions <= 1 {
		return 0
	}
	x, y := p.g.coords(slot)
	px := num.Clamp(int(x/p.w*float64(p.opts.Partitions)), 0, p.opts.Partitions-1)
	py := num.Clamp(int(y/p.h*float64(p.opts.Partitions)), 0, p.opts.Partitions-1)
	return py*p.opts.Partitions + px
}

// delta is the HPWL change of swapping inst into slot (with whatever
// occupies it), exactly, without visiting a pin or mutating anything. Per
// affected net — inst's, then the occupant's not shared with inst —
// "before" is the cached span and "after" the span of the box moved leaves,
// with from and to exchanged for the occupant; a net pinned by both
// endpoints keeps its position multiset, hence its span. The second result
// is the historical runtime-proxy cost of an evaluation (2 passes over the
// affected nets).
func (p *placer) delta(inst, slot int) (d float64, cost int) {
	g, recs := p.g, p.net
	off, nets := p.inc.Off, p.inc.Nets // not inc.Of: it copies the Incidence
	other := g.instAt[slot]
	from, to := g.pos[inst], g.word(slot)
	mine := nets[off[inst]:off[inst+1]]
	var theirs []int32
	if other >= 0 && other != inst {
		theirs = nets[off[other]:off[other+1]]
	}
	// Incidence lists hold a handful of nets and shared ones are rare:
	// count them first so the sums below test membership only when needed.
	shared := 0
	for _, nid := range theirs {
		if slices.Contains(mine, nid) {
			shared++
		}
	}
	var before, after float64
	if shared == 0 {
		// Almost every proposal. The same two sums as below without the
		// membership tests, which also keeps theirs and shared from being
		// live across the first loop: BenchmarkPlaceAnneal 27.5 -> 26.2 ms.
		for _, nid := range mine {
			rec := &recs[nid]
			before += rec.span
			after += g.spanOf(moved(rec.a, rec.b, from, to))
		}
		for _, nid := range theirs {
			rec := &recs[nid]
			before += rec.span
			after += g.spanOf(moved(rec.a, rec.b, to, from))
		}
		return after - before, 2 * (len(mine) + len(theirs))
	}
	for _, nid := range mine {
		rec := &recs[nid]
		before += rec.span
		if slices.Contains(theirs, nid) {
			after += rec.span
		} else {
			after += g.spanOf(moved(rec.a, rec.b, from, to))
		}
	}
	for _, nid := range theirs {
		if slices.Contains(mine, nid) {
			continue
		}
		rec := &recs[nid]
		before += rec.span
		after += g.spanOf(moved(rec.a, rec.b, to, from))
	}
	return after - before, 2 * (len(mine) + len(theirs) - shared)
}

// accepts is the Metropolis test,
//
//	d <= 0 || rng.Float64() < math.Exp(-d/temp)
//
// with most uphill coins settled before the exponential: for x = d/temp > 0,
// 1 + x + x²/2 + x³/6 < e^x, so u times that polynomial above 1 (plus a
// margin far wider than math.Exp's rounding) proves u > exp(-x). u == 0
// makes the product 0 or NaN and x = +Inf makes it +Inf, both on the
// right side.
func accepts(rng *num.SplitMix, d, temp float64) bool {
	if d <= 0 {
		return true
	}
	u := rng.Float64()
	x := d / temp
	if u*(1+x*(1+x*(0.5+x*(1.0/6)))) > 1+1e-6 {
		return false
	}
	return u < math.Exp(-x)
}

// commit makes the swap and rescans the nets of both endpoints. Only a
// committed move ever reads pin positions.
func (p *placer) commit(inst, slot int) {
	other := p.g.instAt[slot]
	swap(p.g, inst, slot)
	for _, nid := range p.inc.Of(inst) {
		p.pinsScanned += p.rescan(nid)
	}
	if other >= 0 {
		for _, nid := range p.inc.Of(other) {
			p.pinsScanned += p.rescan(nid)
		}
	}
}

// merge adds position w to a pair of extreme trackers: a takes the
// lane-wise minimum, and what loses to it — the larger of the old a and w —
// is merged into b.
func merge(a, b, w uint64) (uint64, uint64) {
	x := (a ^ w) & geMask(a, w)
	return a ^ x, laneMin(b, w^x)
}

// rescan recomputes net nid's record from the current positions and
// returns the number of positions read: two trackers and one load per pin,
// no data-dependent branch.
func (p *placer) rescan(nid int32) int {
	pins := p.pins.Of(int(nid))
	pos := p.g.pos
	rec := netRec{a: laneMax, b: laneMax}
	for _, pin := range pins {
		rec.a, rec.b = merge(rec.a, rec.b, pos[pin])
	}
	if len(pins) > 0 {
		rec.span = p.g.spanOf(rec.a)
	}
	p.net[nid] = rec
	return len(pins)
}

// buildGrid creates the slot grid sized for the die and scatters the
// instances into it (random permutation so different seeds explore
// different basins).
func buildGrid(n *netlist.Netlist, w, h float64, rng *rand.Rand) *grid {
	numCells := n.NumCells()
	pitch := n.Lib.RowPitch
	if pitch <= 0 {
		pitch = 1
	}
	rows := int(h/pitch) + 1
	// Enough columns for all cells plus ~30% whitespace.
	cols := int(math.Ceil(float64(numCells) * 1.3 / float64(rows)))
	if cols < 1 {
		cols = 1
	}
	if err := checkLattice(cols, rows); err != nil {
		panic(err)
	}
	g := &grid{
		cols:   cols,
		slotOf: make([]int, numCells),
		instAt: make([]int, cols*rows),
		pos:    make([]uint64, numCells),
		colX:   make([]float64, cols),
		rowY:   make([]float64, rows),
	}
	cellW, rowH := w/float64(cols), h/float64(rows)
	for c := range g.colX {
		g.colX[c] = (float64(c) + 0.5) * cellW
	}
	for r := range g.rowY {
		g.rowY[r] = (float64(r) + 0.5) * rowH
	}
	for i := range g.instAt {
		g.instAt[i] = -1
	}
	perm := rng.Perm(cols * rows)
	for inst := 0; inst < numCells; inst++ {
		slot := perm[inst]
		g.slotOf[inst] = slot
		g.instAt[slot] = inst
		g.pos[inst] = g.word(slot)
	}
	return g
}

// swap moves inst into slot, exchanging with any occupant.
func swap(g *grid, inst, slot int) {
	old := g.slotOf[inst]
	other := g.instAt[slot]
	g.instAt[old] = other
	if other >= 0 {
		g.slotOf[other] = old
		g.pos[other] = g.pos[inst]
	}
	g.instAt[slot] = inst
	g.slotOf[inst] = slot
	g.pos[inst] = g.word(slot)
}

// applyCoords writes grid slot coordinates back to the netlist.
func applyCoords(n *netlist.Netlist, g *grid) {
	for inst := range g.slotOf {
		x, y := g.coords(g.slotOf[inst])
		n.Insts[inst].X = x
		n.Insts[inst].Y = y
	}
}

// Snapshot captures instance coordinates, x and y per instance: the
// placement vector Distance compares.
func Snapshot(n *netlist.Netlist) []float64 {
	s := make([]float64, 2*n.NumCells())
	for i := range n.Insts {
		s[2*i], s[2*i+1] = n.Insts[i].X, n.Insts[i].Y
	}
	return s
}

// Distance returns the average per-cell Manhattan distance between two
// placements — the solution-space metric for big-valley analysis.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var d float64
	for i := 0; i < len(a); i += 2 {
		d += math.Abs(a[i]-b[i]) + math.Abs(a[i+1]-b[i+1])
	}
	return d / float64(len(a)/2)
}
