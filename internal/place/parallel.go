package place

import (
	"math/rand"
	"sync"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Proposal kinds assigned at generation time.
const (
	kindEval uint8 = iota // evaluate and maybe commit
	kindSkip              // self-move or discarded region-crossing: burns a cooling step
)

// Adaptive batch-sizing policy: the live batch shrinks by a quarter
// when an epoch's conflict fraction (conflicts / evaluated proposals)
// exceeds adaptShrinkFrac, and grows by a quarter when it falls below
// adaptGrowFrac, clamped to [floor, Options.Batch]. The floor scales
// with the configured batch (Batch/4, never below adaptBatchFloor):
// epochs pay a fixed propose+barrier cost, so letting a large-batch run
// collapse to a few dozen proposals trades all of its parallel speedup
// for marginal conflict savings. Both adaptation inputs are
// worker-invariant (proposals come from the master stream, conflicts
// from canonical commit order), so the batch trajectory — and therefore
// the placement — stays bit-identical at every worker count.
const (
	adaptBatchFloor = 32
	adaptFloorDiv   = 4
	adaptShrinkFrac = 0.15
	adaptGrowFrac   = 0.05
)

// annealSpeculative is the parallel engine: speculative move evaluation
// with deterministic commit.
//
// Each epoch draws a batch of proposals sequentially from the master
// random stream, evaluates their deltas concurrently against the frozen
// epoch state (quickDelta is pure; every worker owns its scratch), then
// commits in proposal order. A proposal whose instances, slots or nets
// overlap an earlier commit of the same epoch has a stale delta and is
// discarded as a conflict — it burns its cooling step but consumes no
// acceptance coin, so the outcome is a pure function of Seed, Moves and
// Batch, bit-identical at every Workers >= 1 and GOMAXPROCS. A proposal
// evaluated only to its lower bound is settled by accepts exactly like
// one of the serial engine, the few undecided coins costing an evalDelta
// in the commit loop.
//
// The batch size itself adapts between epochs: hot early annealing
// commits almost everything, so large batches mostly discard stale
// deltas; the adaptive policy shrinks the batch while the conflict
// fraction is high and re-grows it as the anneal freezes and commits
// thin out. The policy reads only committed epoch state (see the adapt*
// constants), never timing, preserving worker invariance.
func (p *placer) annealSpeculative(rng *rand.Rand) {
	temp, cool := p.schedule(rng)
	numCells := p.n.NumCells()
	numSlots := len(p.g.instAt)
	numNets := len(p.n.Nets)
	batch := p.opts.Batch
	cur := batch // live adaptive batch; scratch stays sized for the max
	floor := max(adaptBatchFloor, batch/adaptFloorDiv)
	if floor > batch {
		floor = batch
	}

	gang := sched.NewGang(p.opts.Workers)
	defer gang.Close()
	pool := sync.Pool{New: func() any {
		sc := newMoveScratch(numNets)
		return &sc
	}}

	insts := make([]int32, batch)
	slots := make([]int32, batch)
	kinds := make([]uint8, batch)
	deltas := make([]float64, batch) // quickDelta's answer per proposal
	bounded := make([]bool, batch)
	costs := make([]int32, batch)

	// Epoch-stamped conflict sets: anything a committed swap touched.
	instStamp := make([]int32, numCells)
	slotStamp := make([]int32, numSlots)
	netStamp := make([]int32, numNets)
	var epoch int32

	coarseMoves := 0
	if p.opts.Partitions > 1 {
		coarseMoves = p.opts.Moves / 4
	}

	for m := 0; m < p.opts.Moves; {
		if p.ctx.Err() != nil {
			p.aborted = true
			return
		}
		if p.opts.Partitions > 1 && !p.partitioned && m >= coarseMoves {
			p.assignPartitions()
		}
		b := min(cur, p.opts.Moves-m)
		if p.opts.Partitions > 1 && !p.partitioned {
			// Epochs never straddle the coarse->partitioned switch.
			b = min(b, coarseMoves-m)
		}

		// Propose: sequential draws from the master stream, classified
		// against the epoch-start state.
		for k := 0; k < b; k++ {
			inst := rng.Intn(numCells)
			slot := rng.Intn(numSlots)
			kind := kindEval
			if slot == p.g.slotOf[inst] {
				kind = kindSkip
			} else if p.partitioned && p.regionOfSlot(slot) != p.part[inst] {
				if p.opts.ResampleCrossRegion {
					cand := p.regionSlots[p.part[inst]]
					slot = cand[rng.Intn(len(cand))]
					p.res.MovesResampled++
					if slot == p.g.slotOf[inst] {
						kind = kindSkip
					}
				} else {
					kind = kindSkip
				}
			}
			insts[k], slots[k], kinds[k] = int32(inst), int32(slot), kind
		}

		// Evaluate: concurrent, pure, against the frozen epoch state.
		sp := trace.Begin("place.move")
		gang.Round(b, func(lo, hi int) {
			sc := pool.Get().(*moveScratch)
			for k := lo; k < hi; k++ {
				if kinds[k] != kindEval {
					continue
				}
				d, c, bnd := p.quickDelta(int(insts[k]), int(slots[k]), sc)
				deltas[k], costs[k], bounded[k] = d, int32(c), bnd
			}
			pool.Put(sc)
		})

		// Commit: canonical proposal order, conflicts discarded.
		epoch++
		committed := 0
		evals, confs := 0, 0
		for k := 0; k < b; k++ {
			if kinds[k] == kindSkip {
				temp *= cool
				continue
			}
			evals++
			inst, slot := int(insts[k]), int(slots[k])
			if p.conflicts(inst, slot, instStamp, slotStamp, netStamp, epoch) {
				p.res.MovesConflicted++
				confs++
				temp *= cool
				continue
			}
			p.res.MovesTried++
			p.res.RuntimeProxy += int(costs[k])
			if p.accepts(rng, inst, slot, deltas[k], bounded[k], temp) {
				other := p.g.instAt[slot]
				oldSlot := p.g.slotOf[inst]
				p.commitSwap(inst, slot)
				p.res.MovesAccepted++
				committed++
				instStamp[inst] = epoch
				if other >= 0 {
					instStamp[other] = epoch
				}
				slotStamp[slot] = epoch
				slotStamp[oldSlot] = epoch
				for _, nid := range p.commit.affected {
					netStamp[nid] = epoch
				}
			}
			temp *= cool
		}
		sp.SetInt("batch", int64(b))
		sp.SetInt("committed", int64(committed))
		sp.SetInt("conflicts", int64(p.res.MovesConflicted))
		sp.End()
		m += b

		// Adapt the next epoch's batch from this epoch's conflict
		// fraction — committed state only, so the trajectory is identical
		// at every worker count.
		if evals > 0 {
			switch frac := float64(confs) / float64(evals); {
			case frac > adaptShrinkFrac:
				cur -= cur / 4
				if cur < floor {
					cur = floor
				}
			case frac < adaptGrowFrac:
				cur += cur/4 + 1
				if cur > batch {
					cur = batch
				}
			}
		}
	}
	p.res.BatchFinal = cur
}

// conflicts reports whether an earlier commit of the current epoch
// touched anything this proposal's delta depends on: either endpoint
// instance, either slot, or any net incident to the endpoints. If none
// did, the speculative delta is still exact.
func (p *placer) conflicts(inst, slot int, instStamp, slotStamp, netStamp []int32, epoch int32) bool {
	if instStamp[inst] == epoch || slotStamp[slot] == epoch || slotStamp[p.g.slotOf[inst]] == epoch {
		return true
	}
	other := p.g.instAt[slot]
	if other >= 0 && instStamp[other] == epoch {
		return true
	}
	for _, nid := range p.inc.Of(inst) {
		if netStamp[nid] == epoch {
			return true
		}
	}
	if other >= 0 && other != inst {
		for _, nid := range p.inc.Of(other) {
			if netStamp[nid] == epoch {
				return true
			}
		}
	}
	return false
}
