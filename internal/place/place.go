// Package place implements simulated-annealing standard-cell placement.
//
// Placement is a substrate for the paper's experiments in two ways: its
// result drives routing congestion (and therefore the DRV convergence
// behaviour of Fig. 9), and its annealing cost landscape exhibits the
// "big valley" structure that adaptive multistart (Fig. 6(b)) and
// go-with-the-winners (Fig. 6(a)) exploit. A partitioned mode supports
// the "many more small subproblems" ablation of Fig. 4(b).
//
// Two annealing engines share one move evaluator:
//
//   - the serial engine (Workers == 0) commits after every proposal and
//     reproduces the historical serial placer bit for bit;
//   - the territory engine (Workers > 0, see parallel.go) cuts the slot
//     grid into disjoint territories every epoch and runs the serial
//     kernel in each of them side by side, producing results that depend
//     only on Seed/Moves — never on Workers or scheduling.
//
// The evaluator itself is built on flat state that lives on the slot
// lattice: a {col,row} record per instance, one 16-byte integer bounding
// box per net maintained incrementally, and per-column / per-row
// coordinate tables that turn a box into micrometres only when its span
// is summed. CSR incidence (netlist.Incidence / netlist.NetPins) replaces
// nested slices and stamp arrays replace per-move map allocation. See
// DESIGN.md "Move evaluator" for why this is bit-identical to min/max
// over float coordinates.
//
// In front of the exact evaluator sits a certified lower bound on a
// move's delta, computed from the cached boxes alone (boundDelta). Most
// proposals are uphill rejections, and for about three in four the bound
// and the acceptance coin already prove the rejection: no pin is visited
// and no exponential taken. Everything else falls through to the exact
// evaluator with the coin already drawn, so the random stream, every
// decision and every Result field are those of the exact test alone.
package place

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/num"
)

// Options are the placer knobs.
type Options struct {
	Seed        int64
	Moves       int     // total SA moves (default 120 * numCells)
	Utilization float64 // die utilization (default 0.6)
	Partitions  int     // 1 = flat; k means k x k independent regions
	// StartTemp overrides the sampled initial temperature (0 = auto).
	StartTemp float64
	// Workers > 0 selects the territory-parallel annealer with a crew of
	// that size: each epoch the slot grid is cut into disjoint territories
	// that anneal concurrently, each on its own random stream. The outcome
	// depends only on Seed and Moves — identical at every Workers >= 1 —
	// but differs from the Workers == 0 serial engine, which draws every
	// proposal from one stream over the whole die.
	Workers int
	// ResampleCrossRegion redirects region-crossing proposals of the
	// partitioned refinement phase to a random slot inside the
	// instance's own region instead of silently discarding them (the
	// historical behaviour burned the cooling step without trying a
	// move). Off by default so existing results stay reproducible.
	ResampleCrossRegion bool
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
	// MovesResampled counts region-crossing proposals redirected into
	// the instance's own region (Options.ResampleCrossRegion).
	MovesResampled int
	// BatchFinal was the retired engine's final batch size; always 0,
	// kept for the same reason as MovesConflicted.
	BatchFinal int
	// RuntimeProxy counts cost-function evaluations, a deterministic
	// stand-in for wall-clock TAT in the experiments.
	RuntimeProxy int
	// ParallelRuntimeProxy is the TAT assuming each partition region
	// anneals on its own machine (the Fig. 4(b) "many more small
	// subproblems" payoff); equals RuntimeProxy for flat placement.
	ParallelRuntimeProxy int
}

// lattice is a slot's column and row.
type lattice struct{ c, r int32 }

// netBox is a net's bounding box on the lattice. The zero box is the
// box of a pinless net (span 0).
type netBox struct{ minC, maxC, minR, maxR int32 }

// grid is the slot structure used during annealing.
type grid struct {
	cols   int
	slotOf []int     // inst -> slot
	instAt []int     // slot -> inst or -1
	pos    []lattice // inst -> slotOf[inst] decomposed
	// colX[c], rowY[r] are the slot-centre coordinates. Both are monotone
	// in their index, so the float min/max over a net's pins is the table
	// entry of the integer min/max.
	colX, rowY []float64
}

func (g *grid) latticeOf(slot int) lattice {
	return lattice{c: int32(slot % g.cols), r: int32(slot / g.cols)}
}

func (g *grid) coords(slot int) (x, y float64) {
	return g.colX[slot%g.cols], g.rowY[slot/g.cols]
}

// span is the half-perimeter of a lattice box in um.
func (g *grid) span(b netBox) float64 {
	return (g.colX[b.maxC] - g.colX[b.minC]) + (g.rowY[b.maxR] - g.rowY[b.minR])
}

// moveScratch collects the nets a swap touches — a stamp array dedupes
// them without allocating — and classifies each: bit 1 = the moving
// instance pins it, bit 2 = the displaced occupant pins it. Each
// evaluator owns its own scratch. after is evalDelta's by-product: the
// box of each affected net once the swap is made.
type moveScratch struct {
	stamp    []int32 // net -> gen of the last swap whose moving instance pins it
	gen      int32
	affected []int32
	flags    []uint8
	after    []netBox
}

func newMoveScratch(numNets int) moveScratch {
	return moveScratch{
		stamp:    make([]int32, numNets),
		affected: make([]int32, 0, 16),
		flags:    make([]uint8, 0, 16),
		after:    make([]netBox, 0, 16),
	}
}

// collect lists the nets of inst, then those of other (-1 or inst: none)
// not already listed, with their flags. Incidence lists are deduplicated,
// so only other's nets need the stamp test.
func (sc *moveScratch) collect(inc netlist.Incidence, inst, other int) ([]int32, []uint8) {
	sc.gen++
	if sc.gen == math.MaxInt32 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.gen = 1
	}
	aff, flags := sc.affected[:0], sc.flags[:0]
	for _, nid := range inc.Of(inst) {
		sc.stamp[nid] = sc.gen
		aff = append(aff, nid)
		flags = append(flags, 1)
	}
	if other >= 0 && other != inst {
		for _, nid := range inc.Of(other) {
			if sc.stamp[nid] == sc.gen { // shared nets are rare: find it
				for k := range aff {
					if aff[k] == nid {
						flags[k] |= 2
						break
					}
				}
				continue
			}
			aff = append(aff, nid)
			flags = append(flags, 2)
		}
	}
	sc.affected, sc.flags = aff, flags
	return aff, flags
}

// placer is the annealing state. The serial engine drives one; the
// territory engine additionally gives each crew member a private one
// (laneEval) over the same slot maps.
type placer struct {
	n    *netlist.Netlist
	opts Options
	g    *grid
	w, h float64
	res  Result

	inc  netlist.Incidence
	pins netlist.NetPins

	// Cached per-net lattice boxes: the "before" cost of a move is one
	// record read instead of a rescan of every pin.
	box []netBox

	part        []int // inst -> region, set by assignPartitions
	partitioned bool
	regionSlots [][]int32 // region -> its slots (resampling; territory lanes)
	coarseProxy int
	terr        [][]int32 // territory engine: the current epoch's lanes

	eval moveScratch

	// boundDecided counts the tried proposals rejected on the bound alone.
	// Kept out of Result, which is journaled and golden-pinned.
	boundDecided int

	ctx     context.Context
	aborted bool
}

// Place runs simulated annealing on the netlist, mutating instance
// coordinates, and returns quality metrics.
func Place(n *netlist.Netlist, opts Options) Result {
	res, _ := PlaceCtx(context.Background(), n, opts)
	return res
}

// abortCheckMoves is the cancellation poll granularity of the serial
// annealer (the territory engine polls once per epoch). A power of two
// so the poll is a mask, not a division.
const abortCheckMoves = 4096

// PlaceCtx is Place with cooperative cancellation: the anneal polls ctx
// between move blocks and bails out once it is cancelled. The second
// return is false for an aborted anneal — its Result and the netlist's
// coordinates are then partial and must be discarded. Cancellation
// exists so speculative callers can reap a mispredicted anneal early;
// an uncancelled run never aborts, so committed placements keep their
// bit-exact determinism and worker invariance.
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

// newPlacer scatters the instances over a fresh grid (the first draws of
// the returned stream) and builds the evaluator state for that placement.
func newPlacer(ctx context.Context, n *netlist.Netlist, opts Options) (*placer, *rand.Rand) {
	opts = opts.withDefaults(n.NumCells())
	rng := rand.New(rand.NewSource(opts.Seed))

	w, h := netlist.DieSize(n, opts.Utilization)
	p := &placer{n: n, opts: opts, w: w, h: h, ctx: ctx}
	p.g = buildGrid(n, w, h, rng)
	p.res = Result{Width: w, Height: h}

	p.inc = n.BuildIncidence()
	p.pins = n.BuildNetPins()
	numNets := len(n.Nets)
	p.box = make([]netBox, numNets)
	p.eval = newMoveScratch(numNets)

	applyCoords(n, p.g)
	p.res.InitialHPWLUm = n.TotalHPWL()
	for nid := range p.box {
		p.box[nid] = p.scanBox(nid, -1, lattice{})
	}
	return p, rng
}

// anneal runs the engine Options.Workers selects. A netlist without
// cells has no proposal to draw (rng.Intn(0) panics): zero moves.
func (p *placer) anneal(rng *rand.Rand) {
	if p.n.NumCells() == 0 {
		return
	}
	if p.opts.Workers > 0 {
		p.annealTerritory(rng)
	} else {
		p.annealSerial(rng)
	}
}

// annealSerial is the historical commit-every-move engine. Its random
// stream, acceptance decisions and floating-point results are bit-for-
// bit identical to the pre-SoA placer.
func (p *placer) annealSerial(rng *rand.Rand) {
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
		d, cost, bounded := p.quickDelta(inst, slot, &p.eval)
		p.res.RuntimeProxy += cost
		if p.accepts(rng, inst, slot, d, bounded, temp) {
			p.commitEvaluated(inst, slot)
			p.res.MovesAccepted++
		}
		temp *= cool
	}
}

// schedule samples the initial temperature (mean |delta| of random
// moves) and derives the geometric cooling factor.
func (p *placer) schedule(rng *rand.Rand) (temp, cool float64) {
	temp = p.opts.StartTemp
	if temp <= 0 {
		var sum float64
		const samples = 64
		for i := 0; i < samples; i++ {
			inst := rng.Intn(p.n.NumCells())
			slot := rng.Intn(len(p.g.instAt))
			d, cost := p.evalDelta(inst, slot, &p.eval)
			p.res.RuntimeProxy += cost
			sum += math.Abs(d)
		}
		temp = sum/samples + 1e-9
	}
	final := temp / 2000
	cool = math.Pow(final/temp, 1/float64(p.opts.Moves))
	return temp, cool
}

// Partitioned mode runs a flat coarse pass first (global optimization
// places connected cells near each other), then locks each instance
// into the region it landed in and refines within regions only — the
// "RTL partition and floorplan co-optimization" shape of Fig. 4(b),
// where the small subproblems can be solved in parallel.
func (p *placer) assignPartitions() {
	p.part = make([]int, p.n.NumCells())
	for inst := range p.part {
		p.part[inst] = p.regionOfSlot(p.g.slotOf[inst])
	}
	p.partitioned = true
	p.coarseProxy = p.res.RuntimeProxy
	if p.opts.ResampleCrossRegion || p.opts.Workers > 0 {
		p.regionSlots = make([][]int32, p.opts.Partitions*p.opts.Partitions)
		for slot := range p.g.instAt {
			r := p.regionOfSlot(slot)
			p.regionSlots[r] = append(p.regionSlots[r], int32(slot))
		}
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

// quickDelta is what either engine knows about a proposal before its
// acceptance coin is drawn: the certified lower bound of boundDelta when
// that is positive (bounded = true; the exact delta is then positive too),
// the exact evalDelta otherwise. cost is the runtime-proxy cost either way.
func (p *placer) quickDelta(inst, slot int, sc *moveScratch) (d float64, cost int, bounded bool) {
	if lb, cost, ok := p.boundDelta(inst, slot); ok && lb > 0 {
		return lb, cost, true
	}
	d, cost = p.evalDelta(inst, slot, sc)
	return d, cost, false
}

// accepts is the Metropolis test of both engines on quickDelta's answer,
// with the draws and the outcome of
//
//	delta <= 0 || rng.Float64() < math.Exp(-delta/temp)
//
// on the exact delta. A bounded proposal has delta >= d > 0, so the coin u
// is drawn either way; with x = d/temp, 1 + x + x²/2 + x³/6 < e^x <=
// e^(delta/temp), so u times that polynomial above 1 (plus a margin far
// wider than math.Exp's rounding) proves u > exp(-delta/temp): rejected
// without evaluating delta or exp. u == 0 makes the product 0 or NaN and
// x = +Inf makes it +Inf, both on the right side. A coin the bound cannot
// decide is compared against the exact delta, evaluated here with p.eval.
func (p *placer) accepts(rng *rand.Rand, inst, slot int, d float64, bounded bool, temp float64) bool {
	if !bounded {
		return d <= 0 || rng.Float64() < math.Exp(-d/temp)
	}
	u := rng.Float64()
	x := d / temp
	if u*(1+x*(1+x*(0.5+x*(1.0/6)))) > 1+1e-6 {
		p.boundDecided++
		return false
	}
	delta, _ := p.evalDelta(inst, slot, &p.eval)
	return u < math.Exp(-delta/temp)
}

// boundDelta returns a certified lower bound lb <= evalDelta(inst, slot)
// and evalDelta's cost, reading only the incidence lists, the cached
// boxes and the two endpoint positions — no pin is visited. ok is false
// when the displaced occupant shares a net with inst (that net keeps its
// position multiset, which the per-net bound cannot see; rare, and the
// exact evaluator handles it). slot must not be inst's own.
//
// The float sums of the bound and of evalDelta run over different terms,
// so lb is pushed down by a relative and an absolute margin orders of
// magnitude above any rounding of a sum of a few dozen spans.
func (p *placer) boundDelta(inst, slot int) (lb float64, cost int, ok bool) {
	g := p.g
	other := g.instAt[slot]
	from, to := g.pos[inst], g.latticeOf(slot)
	mine := p.inc.Of(inst)
	var before, after float64
	for _, nid := range mine {
		b := p.box[nid]
		before += g.span(b)
		after += g.lbSpan(b, from, to)
	}
	nets := len(mine)
	if other >= 0 {
		theirs := p.inc.Of(other)
		for _, nid := range theirs {
			for _, m := range mine {
				if m == nid {
					return 0, 0, false
				}
			}
			b := p.box[nid]
			before += g.span(b)
			after += g.lbSpan(b, to, from)
		}
		nets += len(theirs)
	}
	return (after - before) - 1e-9*(after+before) - 1e-9, 2 * nets, true
}

// lbSpan is a lower bound, in um, on the span of a net with cached box b
// once the one instance pinning it at f has moved to t — exact when the
// net has two pins. Per axis, with cached extent [lo,hi] and f inside it:
//
//   - lo < f < hi: the other pins still span [lo,hi]; the new extent is
//     exactly [min(lo,t), max(hi,t)].
//   - f == lo < hi: another instance pins hi (one instance per slot), so
//     the low edge retreats to hi at most: at least [min(hi,t), max(hi,t)].
//     Symmetrically for f == hi.
//   - lo == hi on both axes: a single lattice point holds one instance,
//     so every pin of the net moves with it and the span stays 0. The
//     indices are masked to 0 rather than branched around.
//
// Written as sign-mask arithmetic on purpose: there is no loop here and
// four live values per axis, and the if/min/max spelling compiles to a
// dozen data-dependent jumps per net that cost the whole gain. See
// DESIGN.md "Bound-first accept test".
func (g *grid) lbSpan(b netBox, f, t lattice) float64 {
	dc, dr := b.maxC-b.minC, b.maxR-b.minR
	some := -(dc | dr) >> 31 // 0 for a single-point box, else all ones
	pc, qc := lbExtent(b.minC, dc, f.c, t.c)
	pr, qr := lbExtent(b.minR, dr, f.r, t.r)
	return (g.colX[qc&some] - g.colX[pc&some]) + (g.rowY[qr&some] - g.rowY[pr&some])
}

// lbExtent is lbSpan on one axis: the extent [lo, lo+d] with the pin at
// f moved to t, as lattice indices p <= q.
func lbExtent(lo, d, f, t int32) (p, q int32) {
	p = lo + d&^((lo-f)>>31)  // f > lo ? lo : hi
	q = lo + d&((f-lo-d)>>31) // f < hi ? hi : lo
	x, y := p-t, q-t
	return t + x&(x>>31), q - y&(y>>31) // min(p,t), max(q,t)
}

// evalDelta computes the HPWL change of swapping inst into slot (with
// whatever occupies it) without mutating any shared state. Per affected
// net, in collect order: "before" is the span of the cached box, "after"
// the span of the box with the one endpoint that pins the net virtually
// moved; a net pinned by both endpoints keeps its position set, hence its
// box. Safe to call concurrently with distinct scratches. The second
// result is the historical runtime-proxy cost of the evaluation (2 passes
// over affected nets). The "after" boxes stay in sc.after, parallel to
// sc.affected, for commitEvaluated.
func (p *placer) evalDelta(inst, slot int, sc *moveScratch) (delta float64, cost int) {
	g := p.g
	other := g.instAt[slot]
	from, to := g.pos[inst], g.latticeOf(slot)
	aff, flags := sc.collect(p.inc, inst, other)
	boxes := sc.after[:0]
	var before, after float64
	for k, nid := range aff {
		b := p.box[nid]
		before += g.span(b)
		switch flags[k] {
		case 1:
			b = p.movedBox(int(nid), int32(inst), from, to)
		case 2:
			b = p.movedBox(int(nid), int32(other), to, from)
		}
		boxes = append(boxes, b)
		after += g.span(b)
	}
	sc.after = boxes
	return after - before, 2 * len(aff)
}

// commitEvaluated commits a proposal whose evalDelta was the last thing
// p.eval did, on the state being committed to — every move an engine
// accepts, whether quickDelta or accepts evaluated it: the boxes
// evalDelta derived are stored, not derived a second time, and the swap
// is made.
func (p *placer) commitEvaluated(inst, slot int) {
	for k, nid := range p.eval.affected {
		p.box[nid] = p.eval.after[k]
	}
	swap(p.g, inst, slot)
}

// movedBox returns net nid's box once its pin instance who has moved
// from -> to, reading only the cached box and current positions. If the
// vacated point is strictly interior, the box over the remaining pins is
// the cached one and merging the new point is exact; otherwise the box
// may shrink and the pins are rescanned.
func (p *placer) movedBox(nid int, who int32, from, to lattice) netBox {
	b := p.box[nid]
	if from.c > b.minC && from.c < b.maxC && from.r > b.minR && from.r < b.maxR {
		return netBox{min(b.minC, to.c), max(b.maxC, to.c), min(b.minR, to.r), max(b.maxR, to.r)}
	}
	return p.scanBox(nid, who, to)
}

// scanBox computes net nid's box from the current positions, with the
// pins of instance who (-1: none) taken to be at `at`. The loop body
// compiles to loads, compares and conditional moves, no data-dependent
// branch; DESIGN.md "Move evaluator" lists the shapes that did worse.
func (p *placer) scanBox(nid int, who int32, at lattice) netBox {
	pins := p.pins.Of(nid)
	if len(pins) == 0 {
		return netBox{}
	}
	pos := p.g.pos
	minC, minR := int32(math.MaxInt32), int32(math.MaxInt32)
	var maxC, maxR int32
	for _, pin := range pins {
		q := pos[pin]
		if pin == who {
			q = at
		}
		minC, maxC = min(minC, q.c), max(maxC, q.c)
		minR, maxR = min(minR, q.r), max(maxR, q.r)
	}
	return netBox{minC, maxC, minR, maxR}
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
	g := &grid{
		cols:   cols,
		slotOf: make([]int, numCells),
		instAt: make([]int, cols*rows),
		pos:    make([]lattice, numCells),
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
		g.pos[inst] = g.latticeOf(slot)
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
	g.pos[inst] = g.latticeOf(slot)
}

// applyCoords writes grid slot coordinates back to the netlist.
func applyCoords(n *netlist.Netlist, g *grid) {
	for inst := range g.slotOf {
		x, y := g.coords(g.slotOf[inst])
		n.Insts[inst].X = x
		n.Insts[inst].Y = y
	}
	n.InvalidatePlacement()
}

// Snapshot captures instance coordinates so multistart/GWTW can save and
// restore placements.
func Snapshot(n *netlist.Netlist) []float64 {
	s := make([]float64, 2*n.NumCells())
	for i := range n.Insts {
		s[2*i], s[2*i+1] = n.Insts[i].X, n.Insts[i].Y
	}
	return s
}

// Restore writes a snapshot back.
func Restore(n *netlist.Netlist, s []float64) {
	for i := range n.Insts {
		n.Insts[i].X, n.Insts[i].Y = s[2*i], s[2*i+1]
	}
	n.InvalidatePlacement()
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
