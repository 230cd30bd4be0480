// Package sizing implements discrete gate sizing with a signoff timer in
// the optimization loop (the paper's ref [24], "High-Performance Gate
// Sizing with a Signoff Timer"), plus an annealing optimizer that plugs
// into the go-with-the-winners framework for the Fig. 6(a) experiment.
//
// All inner loops run on sta.Incremental, the dirty-frontier timing
// engine: a candidate move costs O(touched cone) instead of a full-graph
// propagation, which is what makes a signoff-grade timer affordable
// inside the loop. Config.ForceFullSTA restores the full re-analysis per
// candidate — kept as the benchmark baseline and differential oracle.
package sizing

import (
	"math"
	"math/rand"

	"repro/internal/gwtw"
	"repro/internal/netlist"
	"repro/internal/num"
	"repro/internal/sta"
)

// Config parameterizes the sizing passes.
type Config struct {
	Seed      int64
	MaxPasses int // sizing/timing iterations (default 8)
	// Engine is the timer consulted inside the loop; nil means the
	// signoff engine (the point of ref [24]).
	Engine *sta.Config
	// SlackMarginPs is the slack floor kept during area recovery
	// (default 5 ps).
	SlackMarginPs float64
	// ForceFullSTA disables the incremental timing engine and re-runs a
	// full sta.Analyze after every candidate move — the pre-incremental
	// behavior. With the exact (epsilon-0) incremental engine both paths
	// take identical decisions and produce identical netlists; this knob
	// exists for benchmarking and differential testing.
	ForceFullSTA bool
}

func (c Config) withDefaults() Config {
	if c.MaxPasses <= 0 {
		c.MaxPasses = 8
	}
	if c.Engine == nil {
		c.Engine = &sta.Config{Engine: sta.Signoff}
	}
	if c.SlackMarginPs == 0 {
		c.SlackMarginPs = 5
	}
	return c
}

// Result reports a sizing pass.
type Result struct {
	AreaBefore, AreaAfter float64
	WNSBefore, WNSAfter   float64
	Upsized, Downsized    int
	// TimerRuns counts timing queries: one per candidate move plus the
	// initial analysis (the work metric of ref [24]'s cost argument).
	TimerRuns int
	// TimerWorkEquiv is the propagation work actually performed, in
	// full-Analyze equivalents. With ForceFullSTA it equals TimerRuns;
	// with the incremental engine it is far smaller — the headline
	// saving of in-loop incremental timing.
	TimerWorkEquiv float64
	Met            bool
}

// Fix upsizes cells on violating paths until timing is met or sizes
// saturate, consulting the configured timer every pass (signoff-driven
// sizing). The netlist is modified in place.
func Fix(n *netlist.Netlist, cfg Config) Result {
	cfg = cfg.withDefaults()
	if cfg.ForceFullSTA {
		return fixFull(n, cfg)
	}
	rng := rand.New(num.NewRand(cfg.Seed))
	res := Result{AreaBefore: n.Area()}
	inc := sta.NewIncremental(n, *cfg.Engine)
	res.TimerRuns++
	res.WNSBefore = inc.WNSPs()
	for pass := 0; pass < cfg.MaxPasses && inc.WNSPs() < 0; pass++ {
		changed := 0
		// Attack every violating endpoint's critical cone.
		for _, ep := range inc.ViolatingEndpoints() {
			netID := ep.Net
			for depth := 0; depth < 8 && netID >= 0; depth++ {
				drv := n.Nets[netID].Driver
				if drv < 0 {
					break
				}
				cell := n.Insts[drv].Cell
				if up, ok := n.Lib.Upsize(cell); ok && rng.Float64() < 0.6 {
					n.Insts[drv].Cell = up
					inc.Resize(drv)
					changed++
					res.Upsized++
				}
				if cell.Class.Sequential() {
					break
				}
				// Walk to the worst fanin (approximate: first).
				fanins := n.FaninNet[drv]
				netID = -1
				for _, f := range fanins {
					if f >= 0 && !n.Nets[f].IsClock {
						netID = f
						break
					}
				}
			}
		}
		if changed == 0 {
			break
		}
		res.TimerRuns++
	}
	res.AreaAfter = n.Area()
	res.WNSAfter = inc.WNSPs()
	res.Met = res.WNSAfter >= 0
	res.TimerWorkEquiv = inc.FullEquivalents()
	return res
}

// fixFull is Fix with a full re-analysis per pass (ForceFullSTA).
func fixFull(n *netlist.Netlist, cfg Config) Result {
	rng := rand.New(num.NewRand(cfg.Seed))
	res := Result{AreaBefore: n.Area()}
	rep := sta.Analyze(n, *cfg.Engine)
	res.TimerRuns++
	res.WNSBefore = rep.WNSPs
	for pass := 0; pass < cfg.MaxPasses && rep.WNSPs < 0; pass++ {
		changed := 0
		for _, ep := range rep.WorstEndpoints(len(rep.Endpoints)) {
			if ep.SlackPs >= 0 {
				break
			}
			netID := ep.Net
			for depth := 0; depth < 8 && netID >= 0; depth++ {
				drv := n.Nets[netID].Driver
				if drv < 0 {
					break
				}
				cell := n.Insts[drv].Cell
				if up, ok := n.Lib.Upsize(cell); ok && rng.Float64() < 0.6 {
					n.Insts[drv].Cell = up
					changed++
					res.Upsized++
				}
				if cell.Class.Sequential() {
					break
				}
				fanins := n.FaninNet[drv]
				netID = -1
				for _, f := range fanins {
					if f >= 0 && !n.Nets[f].IsClock {
						netID = f
						break
					}
				}
			}
		}
		if changed == 0 {
			break
		}
		rep = sta.Analyze(n, *cfg.Engine)
		res.TimerRuns++
	}
	res.AreaAfter = n.Area()
	res.WNSAfter = rep.WNSPs
	res.Met = rep.WNSPs >= 0
	res.TimerWorkEquiv = float64(res.TimerRuns)
	return res
}

// Recover downsizes cells while the signoff timer confirms slack stays
// above the configured margin — the area/power recovery step that
// miscorrelated timers make wasteful (Sec. 3.2: an overly pessimistic
// P&R timer "will perform unneeded sizing ... that cost area, power and
// schedule"). Each candidate downsize is speculative: applied under a
// Checkpoint, kept if the margin holds, rolled back in O(touched cone)
// otherwise. The netlist is modified in place.
func Recover(n *netlist.Netlist, cfg Config) Result {
	cfg = cfg.withDefaults()
	if cfg.ForceFullSTA {
		return recoverFull(n, cfg)
	}
	rng := rand.New(num.NewRand(cfg.Seed))
	res := Result{AreaBefore: n.Area()}
	inc := sta.NewIncremental(n, *cfg.Engine)
	res.TimerRuns++
	res.WNSBefore = inc.WNSPs()
	if res.WNSBefore < cfg.SlackMarginPs {
		res.AreaAfter = res.AreaBefore
		res.WNSAfter = res.WNSBefore
		res.Met = res.WNSBefore >= 0
		res.TimerWorkEquiv = inc.FullEquivalents()
		return res
	}
	order := rng.Perm(n.NumCells())
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		changed := 0
		for _, id := range order {
			down, ok := n.Lib.Downsize(n.Insts[id].Cell)
			if !ok {
				continue
			}
			old := n.Insts[id].Cell
			inc.Checkpoint()
			n.Insts[id].Cell = down
			inc.Resize(id)
			res.TimerRuns++
			if inc.WNSPs() < cfg.SlackMarginPs {
				n.Insts[id].Cell = old // revert
				inc.Rollback()
				continue
			}
			inc.Commit()
			changed++
			res.Downsized++
		}
		if changed == 0 {
			break
		}
	}
	res.AreaAfter = n.Area()
	res.WNSAfter = inc.WNSPs()
	res.Met = res.WNSAfter >= 0
	res.TimerWorkEquiv = inc.FullEquivalents()
	return res
}

// recoverFull is Recover with a full re-analysis per candidate
// (ForceFullSTA) — the pre-incremental baseline.
func recoverFull(n *netlist.Netlist, cfg Config) Result {
	rng := rand.New(num.NewRand(cfg.Seed))
	res := Result{AreaBefore: n.Area()}
	rep := sta.Analyze(n, *cfg.Engine)
	res.TimerRuns++
	res.WNSBefore = rep.WNSPs
	if rep.WNSPs < cfg.SlackMarginPs {
		res.AreaAfter = res.AreaBefore
		res.WNSAfter = rep.WNSPs
		res.Met = rep.WNSPs >= 0
		res.TimerWorkEquiv = float64(res.TimerRuns)
		return res
	}
	order := rng.Perm(n.NumCells())
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		changed := 0
		for _, id := range order {
			down, ok := n.Lib.Downsize(n.Insts[id].Cell)
			if !ok {
				continue
			}
			old := n.Insts[id].Cell
			n.Insts[id].Cell = down
			check := sta.Analyze(n, *cfg.Engine)
			res.TimerRuns++
			if check.WNSPs < cfg.SlackMarginPs {
				n.Insts[id].Cell = old // revert
				continue
			}
			rep = check
			changed++
			res.Downsized++
		}
		if changed == 0 {
			break
		}
	}
	res.AreaAfter = n.Area()
	res.WNSAfter = rep.WNSPs
	res.Met = rep.WNSPs >= 0
	res.TimerWorkEquiv = float64(res.TimerRuns)
	return res
}

// Annealer is a gwtw.Optimizer over discrete cell sizes: cost is total
// area plus a heavy penalty for negative signoff slack. Timing is
// evaluated by an incremental engine; annealing rejects roll the timing
// state back instead of re-evaluating the graph.
type Annealer struct {
	N       *netlist.Netlist
	Engine  sta.Config
	Penalty float64 // cost per ps of negative WNS (default 50)
	Temp    float64 // acceptance temperature, cools per step

	inc   *sta.Incremental
	cost  float64
	valid bool
}

// NewAnnealer wraps a netlist (cloned; the original is untouched).
func NewAnnealer(n *netlist.Netlist, engine sta.Config, seed int64) *Annealer {
	a := &Annealer{
		N:       n.Clone(),
		Engine:  engine,
		Penalty: 50,
		Temp:    2.0,
	}
	// Scramble the starting sizes so different threads explore
	// different basins.
	rng := rand.New(num.NewRand(seed))
	for i := range a.N.Insts {
		steps := rng.Intn(3)
		for k := 0; k < steps; k++ {
			if up, ok := a.N.Lib.Upsize(a.N.Insts[i].Cell); ok {
				a.N.Insts[i].Cell = up
			}
		}
	}
	return a
}

// timer returns the incremental engine, building it on first use (after
// the start scramble).
func (a *Annealer) timer() *sta.Incremental {
	if a.inc == nil {
		a.inc = sta.NewIncremental(a.N, a.Engine)
	}
	return a.inc
}

// Cost implements gwtw.Optimizer.
func (a *Annealer) Cost() float64 {
	if !a.valid {
		a.cost = a.evaluate()
		a.valid = true
	}
	return a.cost
}

func (a *Annealer) evaluate() float64 {
	wns := a.timer().WNSPs()
	c := a.N.Area()
	if wns < 0 {
		c += a.Penalty * -wns
	}
	return c
}

// Step implements gwtw.Optimizer: resize one random cell, keep the move
// if it helps (or with annealing tolerance); a rejected move rolls the
// timing state back in O(touched cone).
func (a *Annealer) Step(rng *rand.Rand) {
	id := rng.Intn(a.N.NumCells())
	old := a.N.Insts[id].Cell
	var next = old
	var ok bool
	if rng.Float64() < 0.5 {
		next, ok = a.N.Lib.Upsize(old)
	} else {
		next, ok = a.N.Lib.Downsize(old)
	}
	if !ok {
		return
	}
	before := a.Cost()
	inc := a.timer()
	inc.Checkpoint()
	a.N.Insts[id].Cell = next
	inc.Resize(id)
	after := a.evaluate()
	if after <= before || rng.Float64() < math.Exp((before-after)/math.Max(a.Temp, 1e-9)) {
		inc.Commit()
		a.cost = after
	} else {
		a.N.Insts[id].Cell = old
		inc.Rollback()
	}
	a.Temp *= 0.999
}

// Clone implements gwtw.Optimizer.
func (a *Annealer) Clone() gwtw.Optimizer {
	c := &Annealer{
		N:       a.N.Clone(),
		Engine:  a.Engine,
		Penalty: a.Penalty,
		Temp:    a.Temp,
		cost:    a.cost,
		valid:   a.valid,
	}
	if a.inc != nil {
		c.inc = a.inc.Clone(c.N)
	}
	return c
}
