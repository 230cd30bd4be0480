package place

import (
	"math"
	"sync/atomic"

	"repro/internal/num"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The territory engine's schedule. None of it is a knob: the outcome is a
// function of (Seed, Moves) because these are constants. Lengths are in
// proposals, Moves/stepsPerProposal to a budget.
//
// lanes: territories per stripe epoch — two per crew member on a 2-core
// host, which is what lets the gang steal around a slow lane. Measured on
// the 18 Workers > 0 rows of testdata/golden_qor.txt under the proposal
// window, mean (worst) HPWL relative to the serial row beside
// them: 2 lanes 1.031x (1.084), 4 lanes 1.052x (1.087), 8 lanes 1.074x
// (1.109): what the lanes lose to the serial engine is the stripe walls a
// window cannot reach across.
//
// epochDiv: lanes read foreign pins frozen at the epoch start, so a long
// epoch optimises against stale neighbours. From the global step's start the
// anneal is cold and its window a few percent of the die, and the epoch
// length hardly matters: soc-proxy after synthesis, mean of seeds 1-3, a
// half, a quarter or an eighth of a proposal per cell place 1.000x, 1.001x
// and 1.000x the serial engine. A tenth gives the flow's five proposals a
// cell fifty epochs, each a barrier and a refresh of every lane's pos and
// net.
const (
	lanes    = 4
	epochDiv = 10 // an epoch is numCells / epochDiv proposals
)

// laneEval is one crew member's private evaluator. Its placer shares n,
// inc, pins and — through its own grid header — slotOf and instAt with
// the master, and owns pos, net and the counters; only the kernel methods
// (delta, commit) are used on it.
type laneEval struct {
	placer
	insts   []int32 // the instances of the territory being annealed
	touched []bool  // net -> a commit of this epoch moved one of its instances
}

// touch marks the nets of inst.
func (le *laneEval) touch(inst int) {
	for _, nid := range le.inc.Of(inst) {
		le.touched[nid] = true
	}
}

// annealTerritory is the parallel engine (Workers > 0): every epoch cuts
// the slot grid into disjoint territories and anneals each as a lane —
// the serial kernel on the lane's own random stream, proposing only the
// territory's instances into the territory's slots. Lanes share slotOf and
// instAt, each reading and writing only the entries of its territory, and
// run on a private copy of pos and net taken at the epoch start: pins of
// foreign instances are read where the epoch began, which bounds their
// staleness by one epoch of moves inside one territory. After the barrier
// every lane has published the positions of its instances and the nets some
// lane's commit touched are rescanned on the crew; the master's records of
// the others are still current.
// No proposal is evaluated twice or discarded and nothing commits
// serially, so the outcome is a pure function of (Seed, Moves): identical
// at every Workers >= 1 and GOMAXPROCS.
//
// Territories are four stripes, vertical and horizontal by turns and
// shifted by half a stripe every second epoch, so no cell pair stays
// separated; a partitioned run has locked its regions after the global
// step, and its territories are the k x k regions themselves — Fig. 4(b)
// executed. The window is the serial
// engine's, sized at the temperature the epoch starts at and clipped to the
// lane's rectangle. Lane proposal j of an epoch starting at T runs at
// T*cool^(L*j), L the lane count, so the L lanes together spend the epoch's
// cooling steps and the schedule ends where the serial one does.
func (p *placer) annealTerritory(rng *num.SplitMix) {
	t0, cool := p.schedule(rng)
	numCells, proposals := p.n.NumCells(), p.opts.Moves/stepsPerProposal

	// By value: a lane draws from a copy on its stack, not beside its neighbour's.
	streams := make([]num.SplitMix, max(lanes, p.opts.Partitions*p.opts.Partitions))
	for l := range streams {
		streams[l] = *num.NewSplitMix(num.Mix(p.opts.Seed, annealStream+1+uint64(l)))
	}
	stripes := p.stripeTerritories()

	gang := sched.NewGang(p.opts.Workers)
	defer gang.Close()
	crew := make([]*laneEval, min(p.opts.Workers, len(streams)))
	free := make(chan *laneEval, len(crew))
	for i := range crew {
		g := *p.g
		g.pos = make([]uint64, numCells)
		crew[i] = &laneEval{
			placer:  placer{n: p.n, g: &g, inc: p.inc, pins: p.pins, net: make([]netRec, len(p.net))},
			insts:   make([]int32, 0, numCells),
			touched: make([]bool, len(p.net)),
		}
		free <- crew[i]
	}
	next := make([]uint64, numCells) // the positions the lanes publish
	var scanned atomic.Int64         // pins read by an epoch's rescan

	for m, epoch := 0, 0; m < proposals; epoch++ {
		if p.ctx.Err() != nil {
			p.aborted = true
			return
		}
		p.terr = stripes[epoch%len(stripes)]
		if p.partitioned {
			p.terr = p.region
		}
		b := min(max(numCells/epochDiv, 1), proposals-m)

		sp := trace.Begin("place.move")
		L := len(p.terr)
		cooled := math.Pow(cool, float64(m))
		p.rc, p.rr = p.reach(startFrac * cooled)
		temp, laneCool := t0*cooled, math.Pow(cool, float64(L))
		gang.Round(L, func(lo, hi int) {
			le := <-free
			for l := lo; l < hi; l++ {
				laneMoves := b / L
				if l < b%L {
					laneMoves++
				}
				p.runLane(le, l, &streams[l], laneMoves, temp, laneCool, next)
			}
			free <- le
		})
		p.g.pos, next = next, p.g.pos
		gang.Round(len(p.net), func(lo, hi int) {
			pins := 0
			for nid := lo; nid < hi; nid++ {
				hit := false
				for _, le := range crew {
					hit = hit || le.touched[nid]
					le.touched[nid] = false
				}
				if hit {
					pins += p.rescan(int32(nid))
				}
			}
			scanned.Add(int64(pins))
		})
		p.pinsScanned += int(scanned.Swap(0))
		accepted := p.res.MovesAccepted
		for _, le := range crew {
			p.res.MovesTried += le.res.MovesTried
			p.res.MovesAccepted += le.res.MovesAccepted
			p.res.RuntimeProxy += le.res.RuntimeProxy
			p.pinsScanned += le.pinsScanned
			le.res, le.pinsScanned = Result{}, 0
		}
		sp.SetInt("lanes", int64(L))
		sp.SetInt("moves", int64(b))
		sp.SetInt("accepted", int64(p.res.MovesAccepted-accepted))
		sp.End()
		m += b
	}
}

// runLane anneals territory p.terr[lane] for the given number of proposals
// on le, from the master's epoch-start pos and net, and publishes where the
// territory's instances ended up into next. It writes slotOf/instAt
// entries of its territory only, and next entries of its instances only.
func (p *placer) runLane(le *laneEval, lane int, stream *num.SplitMix, moves int, temp, cool float64, next []uint64) {
	g, pieces := le.g, p.terr[lane]
	copy(g.pos, p.g.pos)
	copy(le.net, p.net)
	insts, last := le.insts[:0], 0
	for _, piece := range pieces {
		last = len(insts) // where the last piece's instances start
		for r := piece.r0; r <= piece.r1; r++ {
			for _, inst := range g.instAt[r*g.cols+piece.c0 : r*g.cols+piece.c1+1] {
				if inst >= 0 {
					insts = append(insts, int32(inst))
				}
			}
		}
	}
	le.insts = insts
	if len(insts) == 0 {
		return // nothing to move: the lane's cooling steps are burned
	}
	rng := *stream
	for j := 0; j < moves; j, temp = j+1, temp*cool {
		// The window is clipped to the piece the epoch found inst in.
		i := rng.Intn(len(insts))
		inst, in := int(insts[i]), pieces[0]
		if i >= last {
			in = pieces[len(pieces)-1]
		}
		slot := g.target(rng.Uint64(), inst, in, p.rc, p.rr)
		if slot < 0 {
			continue // a piece of one slot
		}
		le.res.MovesTried++
		d, cost := le.delta(inst, slot)
		le.res.RuntimeProxy += cost
		if accepts(&rng, d, temp) {
			le.touch(inst)
			if other := g.instAt[slot]; other >= 0 {
				le.touch(other)
			}
			le.commit(inst, slot)
			le.res.MovesAccepted++
		}
	}
	*stream = rng
	for _, inst := range insts {
		next[inst] = g.pos[inst]
	}
}

// stripeTerritories returns the four stripe cuts the epochs cycle through:
// columns, rows, and both shifted by half a stripe. A territory is one
// rectangle, except the last of a shifted cut, which is the half stripes at
// both die edges, between which no move jumps. A grid with fewer columns or
// rows than lanes leaves some territories empty.
func (p *placer) stripeTerritories() [4][][]rect {
	cols, rows := p.g.cols, len(p.g.rowY)
	var cuts [4][][]rect
	for k := range cuts {
		// stripe is the rectangle of columns, or rows, [lo, hi).
		n, stripe := cols, func(lo, hi int) rect { return rect{lo, 0, hi - 1, rows - 1} }
		if k&1 == 1 {
			n, stripe = rows, func(lo, hi int) rect { return rect{0, lo, cols - 1, hi - 1} }
		}
		shift := k / 2 * (n / (2 * lanes))
		cut := make([][]rect, lanes)
		for t := range cut {
			cut[t] = []rect{stripe(shift+t*n/lanes, min(shift+(t+1)*n/lanes, n))}
		}
		if shift > 0 {
			cut[lanes-1] = append(cut[lanes-1], stripe(0, shift))
		}
		cuts[k] = cut
	}
	return cuts
}
