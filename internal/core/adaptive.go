package core

import (
	"math"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/ml"
	"repro/internal/netlist"
	"repro/internal/warehouse"
)

// Agent is the Stage-4 adaptive flow: every run is instrumented into the
// METRICS warehouse, and the warehouse miner's predictions choose the
// next run's options — the closed "measure, to improve" loop of Sec. 4
// with no human intervention.
type Agent struct {
	Design    *netlist.Netlist
	Warehouse *warehouse.Warehouse // required; records accumulate across rounds and agents
	Start     flow.Options
}

// AgentRound is one adaptation step.
type AgentRound struct {
	Round         int
	Options       flow.Options
	Met           bool
	AreaUm2       float64
	WNSPs         float64
	TargetFreqGHz float64
}

// RunRounds executes the adapt-run-record loop for the given number of
// rounds and returns the trajectory. Each round is a one-point campaign
// whose id hashes the run's cache key (design fingerprint + options
// key), so a repeated identical run dedupes in the warehouse and two
// different runs never collide.
func (a Agent) RunRounds(rounds int) []AgentRound {
	designKey := campaign.KeyFor(a.Design)
	opts := a.Start
	var out []AgentRound
	for r := 0; r < rounds; r++ {
		opts.Seed = a.Start.Seed + int64(r)*104729
		pt := campaign.NewPoint(a.Design, designKey, opts)
		emit := warehouse.NewEmitter(campaign.ID([]campaign.Point{pt}), "local", []string{opts.Key()}, a.Warehouse)
		res := flow.RunObserved(a.Design, opts, emit)
		emit.Flush()
		out = append(out, AgentRound{
			Round: r, Options: opts, Met: res.Met,
			AreaUm2: res.AreaUm2, WNSPs: res.WNSPs,
			TargetFreqGHz: opts.TargetFreqGHz,
		})
		opts = warehouse.Suggest(a.Warehouse, a.Design.Name, opts)
	}
	return out
}

// MarginModel is the quantitative version of the paper's Fig. 4
// coevolution loop: tool noise forces designers to guardband ("aim
// low"); guardbands cost quality; unpredictability costs iterations.
//
// A run aimed at (1-margin)*fmax succeeds when the run's realized
// capability exceeds the target; realized capability is Gaussian around
// (1-bias)*fmax with relative noise sigma (measured by internal/noise).
type MarginModel struct {
	Sigma float64 // relative run-to-run noise (e.g. 0.04)
	Bias  float64 // systematic shortfall of the tool (e.g. 0.01)
}

// SuccessProb returns the probability one run meets the margined target.
func (m MarginModel) SuccessProb(margin float64) float64 {
	g := ml.Gaussian{Mu: 1 - m.Bias, Sigma: math.Max(m.Sigma, 1e-9)}
	return 1 - g.CDF(1-margin)
}

// ExpectedIterations returns the expected number of flow iterations
// until success at the given margin (geometric).
func (m MarginModel) ExpectedIterations(margin float64) float64 {
	p := m.SuccessProb(margin)
	if p <= 1e-12 {
		return math.Inf(1)
	}
	return 1 / p
}

// AchievedQuality is the frequency fraction locked in by the margin.
func (MarginModel) AchievedQuality(margin float64) float64 { return 1 - margin }

// OptimalMargin returns the smallest margin whose expected iteration
// count fits the schedule budget — the margin a rational designer picks.
func (m MarginModel) OptimalMargin(iterBudget float64) float64 {
	lo, hi := 0.0, 0.9
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.ExpectedIterations(mid) > iterBudget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// StepSpec is one flow step in the Fig. 5(a) option tree.
type StepSpec struct {
	Name    string
	Options int // distinct settings a human/robot must choose among
}

// DefaultFlowTree returns a representative option tree: each step of the
// RTL-to-GDSII flow with an order-of-magnitude option count. The real
// number for a modern P&R tool is "well over ten thousand
// command-option combinations" in one step alone; these are scaled to
// keep the arithmetic legible.
func DefaultFlowTree() []StepSpec {
	return []StepSpec{
		{"constraints", 6},
		{"floorplan", 8},
		{"synthesis", 10},
		{"placement", 12},
		{"cts", 6},
		{"routing", 8},
		{"signoff", 4},
	}
}

// Trajectories returns the number of single-pass flow trajectories in
// the tree (product of option counts).
func Trajectories(steps []StepSpec) float64 {
	t := 1.0
	for _, s := range steps {
		t *= float64(s.Options)
	}
	return t
}

// TrajectoriesWithIteration accounts for loops: a flow allowed up to
// maxIter passes explores sum_{k=1..maxIter} T^k trajectories.
func TrajectoriesWithIteration(steps []StepSpec, maxIter int) float64 {
	t := Trajectories(steps)
	total := 0.0
	pow := 1.0
	for k := 1; k <= maxIter; k++ {
		pow *= t
		total += pow
	}
	return total
}

// ExploredFraction returns how much of the single-pass tree a search
// budget covers — the quantitative futility of unguided search that
// motivates bandits and pruning.
func ExploredFraction(steps []StepSpec, budgetRuns float64) float64 {
	t := Trajectories(steps)
	if t <= 0 {
		return 0
	}
	f := budgetRuns / t
	if f > 1 {
		return 1
	}
	return f
}
