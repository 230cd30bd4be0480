package place

import (
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/trace"
)

// The territory engine's schedule. None of it is a knob: the outcome is
// a function of (Seed, Moves) because these are constants. Each was chosen
// on the 18 distinct Workers > 0 place rows of testdata/golden_qor.txt,
// as HPWL relative to the engine this one replaced (scripts/goldenfence).
//
// lanes: territories per stripe epoch — two per crew member on a 2-core
// host, which is what lets the gang steal around a slow lane. 4 lanes:
// 0.876–1.002x; 8 lanes: 0.877–1.009x, so narrower stripes buy nothing.
//
// Epoch length, in moves per cell: lanes read foreign pins frozen at the
// epoch start, and while the anneal is hot most proposals commit, so a
// long epoch optimises against stale neighbours. With 2 moves per cell
// throughout, flat rows were 0.89–0.97x but every partitioned row lost,
// 1.011–1.079x — their flat coarse phase is the hot quarter and nothing
// after it can cross a region to repair it. 1/4 move per cell for the
// first quarter of the schedule and 2 per cell after gave the 0.876–1.002x
// above at ~84 epochs for a 60-moves-per-cell flow anneal.
const (
	lanes         = 4
	hotEpochDiv   = 4 // hot epoch = numCells / hotEpochDiv moves
	coldEpochMult = 2 // cold epoch = coldEpochMult * numCells moves
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
// separated; once a partitioned run has locked its regions (Moves/4, as
// in the serial engine) the territories are the k x k regions themselves
// — Fig. 4(b) executed — and a draw outside the region is skipped or
// resampled exactly as there. Lane move j of an epoch starting at T runs
// at T*cool^(L*j), L the lane count, so the L lanes together spend the
// epoch's cooling steps and the schedule ends where the serial one does.
func (p *placer) annealTerritory(rng *rand.Rand) {
	start, cool := p.schedule(rng)
	numCells, moves := p.n.NumCells(), p.opts.Moves
	quarter := moves / 4

	streams := make([]*rand.Rand, max(lanes, p.opts.Partitions*p.opts.Partitions))
	for l := range streams {
		streams[l] = rand.New(rand.NewSource(rng.Int63()))
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

	for m, epoch := 0, 0; m < moves; epoch++ {
		if p.ctx.Err() != nil {
			p.aborted = true
			return
		}
		p.terr = stripes[epoch%len(stripes)]
		b := coldEpochMult * numCells
		if m < quarter {
			// Epochs never straddle the hot->cold (and coarse->partitioned) switch.
			b = min(max(numCells/hotEpochDiv, 1), quarter-m)
		} else if p.opts.Partitions > 1 {
			if !p.partitioned {
				p.assignPartitions()
			}
			p.terr = p.regionSlots
		}
		b = min(b, moves-m)

		sp := trace.Begin("place.move")
		L := len(p.terr)
		temp, laneCool := start*math.Pow(cool, float64(m)), math.Pow(cool, float64(L))
		gang.Round(L, func(lo, hi int) {
			le := <-free
			for l := lo; l < hi; l++ {
				laneMoves := b / L
				if l < b%L {
					laneMoves++
				}
				p.runLane(le, l, streams[l], laneMoves, temp, laneCool, next)
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
			p.res.MovesResampled += le.res.MovesResampled
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

// runLane anneals territory p.terr[lane] for the given number of moves on
// le, from the master's epoch-start pos and net, and publishes where the
// territory's instances ended up into next. It writes slotOf/instAt
// entries of its territory only, and next entries of its instances only.
func (p *placer) runLane(le *laneEval, lane int, rng *rand.Rand, moves int, temp, cool float64, next []uint64) {
	g, slots := le.g, p.terr[lane]
	copy(g.pos, p.g.pos)
	copy(le.net, p.net)
	insts := le.insts[:0]
	for _, s := range slots {
		if inst := g.instAt[s]; inst >= 0 {
			insts = append(insts, int32(inst))
		}
	}
	le.insts = insts
	if len(insts) == 0 {
		return // nothing to move: the lane's cooling steps are burned
	}
	numSlots := len(g.instAt)
	for j := 0; j < moves; j, temp = j+1, temp*cool {
		inst := int(insts[rng.Intn(len(insts))])
		var slot int
		if !p.partitioned {
			slot = int(slots[rng.Intn(len(slots))])
		} else if slot = rng.Intn(numSlots); p.regionOfSlot(slot) != lane {
			if !p.opts.ResampleCrossRegion {
				continue
			}
			slot = int(slots[rng.Intn(len(slots))])
			le.res.MovesResampled++
		}
		if slot == g.slotOf[inst] {
			continue
		}
		le.res.MovesTried++
		d, cost := le.delta(inst, slot)
		le.res.RuntimeProxy += cost
		if accepts(rng, d, temp) {
			le.touch(inst)
			if other := g.instAt[slot]; other >= 0 {
				le.touch(other)
			}
			le.commit(inst, slot)
			le.res.MovesAccepted++
		}
	}
	for _, inst := range insts {
		next[inst] = g.pos[inst]
	}
}

// stripeTerritories returns the four stripe cuts the epochs cycle
// through: columns, rows, columns shifted by half a stripe, rows shifted
// by half a stripe (the shifted cut's first territory wraps around the
// die edge). Each cut lists every slot once, grouped by territory; a grid
// with fewer columns or rows than lanes leaves some territories empty.
func (p *placer) stripeTerritories() [4][][]int32 {
	cols, numSlots := p.g.cols, len(p.g.instAt)
	rows := numSlots / cols
	var cuts [4][][]int32
	for k := range cuts {
		n := cols
		if k&1 == 1 {
			n = rows
		}
		shift := k / 2 * (n / (2 * lanes))
		cut := make([][]int32, lanes)
		for t := range cut {
			cut[t] = make([]int32, 0, (n/lanes+1)*(numSlots/n))
		}
		for slot := 0; slot < numSlots; slot++ {
			i := slot % cols
			if k&1 == 1 {
				i = slot / cols
			}
			t := (i + shift) % n * lanes / n
			cut[t] = append(cut[t], int32(slot))
		}
		cuts[k] = cut
	}
	return cuts
}
