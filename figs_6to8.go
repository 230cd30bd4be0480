package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/flow"
	"repro/internal/gwtw"
	"repro/internal/mab"
	"repro/internal/multistart"
	"repro/internal/sizing"
	"repro/internal/sta"
)

// ---------------------------------------------------------------------
// Figure 6(a): go-with-the-winners vs independent multistart.

// Fig6aResult compares GWTW against independent threads at equal budget.
type Fig6aResult struct {
	GWTWCost        float64
	IndependentCost float64
	Rounds          int
	Population      int
	TotalSteps      int
	// Trace is the GWTW population-cost trace (per round, sorted).
	Trace [][]float64
}

// Fig6a runs gate-sizing GWTW on a timing-constrained design.
func Fig6a(scale Scale, seed int64) Fig6aResult {
	design := designForScale(scale, seed)
	// Constrain to ~90% of achievable so the sizing problem is tense.
	rep := sta.Analyze(design, sta.Config{Engine: sta.Signoff})
	design.ClockPeriodPs = 1000 / rep.MaxFreqGHz * 0.92

	cfg := gwtw.Config{Population: 8, Rounds: 8, StepsPerRound: 30, Seed: seed}
	if scale == Paper {
		cfg = gwtw.Config{Population: 12, Rounds: 12, StepsPerRound: 60, Seed: seed}
	}
	engine := sta.Config{Engine: sta.Fast}
	newThread := func(i int) gwtw.Optimizer {
		return sizing.NewAnnealer(design, engine, seed+int64(i)*31)
	}
	g := gwtw.Run(newThread, cfg)
	ind := gwtw.RunIndependent(newThread, cfg)
	return Fig6aResult{
		GWTWCost:        g.BestCost,
		IndependentCost: ind.BestCost,
		Rounds:          cfg.Rounds,
		Population:      cfg.Population,
		TotalSteps:      g.TotalSteps,
		Trace:           g.Trace,
	}
}

// Print writes the comparison.
func (r Fig6aResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6(a): GWTW vs independent multistart (gate sizing, %d threads x %d rounds, %d steps)\n",
		r.Population, r.Rounds, r.TotalSteps)
	fmt.Fprintf(w, "GWTW best cost:        %.2f\n", r.GWTWCost)
	fmt.Fprintf(w, "independent best cost: %.2f\n", r.IndependentCost)
	if len(r.Trace) > 0 {
		fmt.Fprintf(w, "population best per round:")
		for _, costs := range r.Trace {
			fmt.Fprintf(w, " %.0f", costs[0])
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// Figure 6(b): adaptive multistart and the big valley.

// Fig6bResult compares adaptive against random multistart on placement.
type Fig6bResult struct {
	AdaptiveBest     float64
	RandomBest       float64
	CostDistanceCorr float64 // big-valley signature (positive)
	Starts           int
}

// Fig6b runs the placement multistart comparison.
func Fig6b(scale Scale, seed int64) Fig6bResult {
	design := designForScale(scale, seed)
	p := multistart.NewPlacementProblem(design)
	cfg := multistart.Config{Starts: 8, LocalSteps: 1500, Seed: seed}
	if scale == Paper {
		cfg = multistart.Config{Starts: 16, LocalSteps: 6000, Seed: seed}
	}
	ad := multistart.Adaptive(p, cfg)
	rnd := multistart.Random(p, cfg)
	return Fig6bResult{
		AdaptiveBest:     ad.BestCost,
		RandomBest:       rnd.BestCost,
		CostDistanceCorr: rnd.CostDistanceCorr,
		Starts:           cfg.Starts,
	}
}

// Print writes the comparison.
func (r Fig6bResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6(b): adaptive multistart (placement, %d starts)\n", r.Starts)
	fmt.Fprintf(w, "adaptive best HPWL: %.1f\n", r.AdaptiveBest)
	fmt.Fprintf(w, "random   best HPWL: %.1f\n", r.RandomBest)
	fmt.Fprintf(w, "cost-distance correlation (big valley): %.3f\n", r.CostDistanceCorr)
}

// ---------------------------------------------------------------------
// Figure 7: MAB sampling of the SP&R flow.

// AlgoScore compares bandit policies at equal budget: the best feasible
// frequency found (exploration) and the total shaped reward earned
// (sampling efficiency — the bandit objective the paper optimizes).
type AlgoScore struct {
	BestFreqGHz float64
	TotalReward float64
}

// Fig7Result is the bandit search trace for one algorithm, plus the
// comparison across algorithms the paper summarizes ("TS is found to be
// more robust").
type Fig7Result struct {
	Main       *SearchResult
	Comparison map[string]AlgoScore
	Arms       []float64
}

// shapedReward sums the satisfied samples' frequency-weighted rewards.
func shapedReward(r *SearchResult, maxArm float64) float64 {
	var total float64
	for _, s := range r.Samples {
		if s.Satisfied {
			total += s.FreqGHz / maxArm
		}
	}
	return total
}

// fig7Licenses is K, the concurrent tool runs per bandit iteration (the
// figure's 5).
const fig7Licenses = 5

// Fig7 runs the K-concurrent x N-iteration MAB sampling experiment.
func Fig7(scale Scale, seed int64) (Fig7Result, error) {
	design := designForScale(scale, seed)
	// Arms: a ladder of target frequencies straddling feasibility.
	probe := RunFlow(design, flow.Options{TargetFreqGHz: 0.3, Seed: seed})
	fmax := probe.MaxFreqGHz
	// The probe's fmax is a lower bound on what harder targets can
	// reach (synthesis works harder when pushed), so the ladder spans
	// well past it to guarantee infeasible arms.
	arms := []float64{fmax * 0.5, fmax * 0.7, fmax * 0.9, fmax * 1.1, fmax * 1.5, fmax * 3}

	cons := flow.Constraints{MaxAreaUm2: probe.AreaUm2 * 1.6, MaxPowerNW: probe.PowerNW * 1.8}
	iters := 10
	if scale == Paper {
		iters = 40
	}
	base := flowBase(seed)
	// One memo cache across all four policy searches: any option point
	// two searches both sample is computed once.
	cache := NewFlowCache(0)
	main, err := Search(design, base, cons, SearchConfig{
		Freqs: arms, Iterations: iters, Licenses: fig7Licenses, Algorithm: "thompson", Seed: seed,
		FreqWeighted: true, Cache: cache,
	})
	if err != nil {
		return Fig7Result{}, err
	}
	maxArm := arms[len(arms)-1]
	cmp := map[string]AlgoScore{
		"thompson": {BestFreqGHz: main.BestFreqGHz, TotalReward: shapedReward(main, maxArm)},
	}
	for _, alg := range []string{"softmax", "eps-greedy", "ucb1"} {
		r, err := Search(design, base, cons, SearchConfig{
			Freqs: arms, Iterations: iters, Licenses: fig7Licenses, Algorithm: alg, Seed: seed,
			FreqWeighted: true, Cache: cache,
		})
		if err != nil {
			return Fig7Result{}, err
		}
		cmp[alg] = AlgoScore{BestFreqGHz: r.BestFreqGHz, TotalReward: shapedReward(r, maxArm)}
	}
	return Fig7Result{Main: main, Comparison: cmp, Arms: arms}, nil
}

// Print writes the trajectory and comparison.
func (r Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: MAB sampling (%s, %d runs, %d licenses)\n",
		r.Main.Algorithm, r.Main.TotalRuns, fig7Licenses)
	fmt.Fprintf(w, "arms (GHz):")
	for _, f := range r.Arms {
		fmt.Fprintf(w, " %.3f", f)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-5s %-28s %s\n", "iter", "sampled (GHz, *=satisfied)", "best")
	for t := 0; ; t++ {
		var line string
		found := false
		for _, s := range r.Main.Samples {
			if s.Iteration != t {
				continue
			}
			found = true
			mark := " "
			if s.Satisfied {
				mark = "*"
			}
			line += fmt.Sprintf("%.2f%s ", s.FreqGHz, mark)
		}
		if !found {
			break
		}
		fmt.Fprintf(w, "%-5d %-28s %.3f\n", t, line, r.Main.BestFreqSoFar[t])
	}
	fmt.Fprintf(w, "algorithm comparison at equal budget:\n")
	fmt.Fprintf(w, "  %-10s %12s %14s\n", "policy", "best (GHz)", "total reward")
	for _, alg := range []string{"thompson", "softmax", "eps-greedy", "ucb1"} {
		s := r.Comparison[alg]
		fmt.Fprintf(w, "  %-10s %12.3f %14.2f\n", alg, s.BestFreqGHz, s.TotalReward)
	}
}

// BanditRobustness reproduces the paper's cross-setting claim about
// Thompson Sampling ("TS is found to be more robust ... across a wide
// range of settings, compared to other algorithms"): each policy runs on
// a grid of synthetic environments (arm counts, reward gaps, noise,
// horizons, concurrency) and is scored by its reward relative to the
// best policy in each setting. Robustness = the worst-case relative
// score across settings.
type BanditRobustness struct {
	// MeanRel and WorstRel map algorithm name to its mean and
	// worst-case reward relative to the per-setting best (1.0 = always
	// the best policy).
	MeanRel  map[string]float64
	WorstRel map[string]float64
	Settings int
}

// Fig7Robustness runs the cross-setting bandit study (pure synthetic
// environments; no flow runs, so it is cheap at any scale).
func Fig7Robustness(seed int64) BanditRobustness {
	algs := []string{"thompson", "softmax", "eps-greedy", "ucb1"}
	res := BanditRobustness{
		MeanRel:  map[string]float64{},
		WorstRel: map[string]float64{},
	}
	for _, a := range algs {
		res.WorstRel[a] = 1
	}
	type setting struct {
		env  mab.Environment
		iter int
		conc int
	}
	var settings []setting
	// Bernoulli ladders with wide and narrow gaps.
	for _, gap := range []float64{0.3, 0.1, 0.03} {
		probs := []float64{0.2, 0.2 + gap, 0.2 + 2*gap}
		settings = append(settings,
			setting{mab.Bernoulli{Probs: probs}, 40, 5},
			setting{mab.Bernoulli{Probs: probs}, 200, 1},
		)
	}
	// Gaussian arms with low and high noise (the i.i.d. tool-outcome
	// abstraction).
	for _, sigma := range []float64{0.05, 0.25} {
		means := []float64{0.3, 0.45, 0.6, 0.5, 0.35}
		sigmas := make([]float64, len(means))
		for i := range sigmas {
			sigmas[i] = sigma
		}
		settings = append(settings,
			setting{mab.GaussianArms{Means: means, Sigmas: sigmas}, 40, 5},
			setting{mab.GaussianArms{Means: means, Sigmas: sigmas}, 100, 10},
		)
	}
	res.Settings = len(settings)

	// Each setting's scores are independent of the others, so the grid
	// fans out over the campaign engine; the relative-score merge below
	// runs serially in setting order, keeping the floating-point
	// accumulation identical to the serial loop.
	const seedsPer = 6
	eng := campaign.New(campaign.Config{Workers: campaign.Workers(WorkerCount())})
	perSetting, _, _ := campaign.Map(context.Background(), eng, len(settings), //nolint:errcheck // background ctx never cancels
		func(i int) map[string]float64 {
			st := settings[i]
			totals := map[string]float64{}
			for s := int64(0); s < seedsPer; s++ {
				for _, name := range algs {
					alg, _ := NewAlgorithmByName(name, st.env.NumArms())
					h := mab.Simulate(alg, st.env, mab.Config{
						Iterations: st.iter, Concurrent: st.conc, Seed: seed + s,
					})
					totals[name] += h.TotalReward()
				}
			}
			return totals
		})
	for _, totals := range perSetting {
		best := 0.0
		for _, t := range totals {
			if t > best {
				best = t
			}
		}
		if best <= 0 {
			continue
		}
		for _, name := range algs {
			rel := totals[name] / best
			res.MeanRel[name] += rel / float64(res.Settings)
			if rel < res.WorstRel[name] {
				res.WorstRel[name] = rel
			}
		}
	}
	return res
}

// NewAlgorithmByName builds a bandit policy (exposed for the robustness
// study; mirrors core.NewAlgorithm without the error path).
func NewAlgorithmByName(name string, arms int) (mab.Algorithm, error) {
	return core.NewAlgorithm(name, arms)
}

// Print writes the robustness table.
func (r BanditRobustness) Print(w io.Writer) {
	fmt.Fprintf(w, "Bandit robustness over %d settings (reward relative to per-setting best)\n", r.Settings)
	fmt.Fprintf(w, "%-12s %8s %8s\n", "policy", "mean", "worst")
	for _, a := range []string{"thompson", "softmax", "eps-greedy", "ucb1"} {
		fmt.Fprintf(w, "%-12s %8.3f %8.3f\n", a, r.MeanRel[a], r.WorstRel[a])
	}
}

// ---------------------------------------------------------------------
// Figure 8: accuracy-cost tradeoff and the ML shift.

// Fig8Result is the curve of engine configurations plus the ML point.
type Fig8Result struct {
	Points []correlate.CurvePoint
}

// Fig8 builds the accuracy-cost curve with an ML-corrected fast engine.
func Fig8(scale Scale, seed int64) (Fig8Result, error) {
	lib := DefaultLibrary()
	var train []*Design
	n := 3
	if scale == Paper {
		n = 8
	}
	for i := 0; i < n; i++ {
		train = append(train, NewDesign(lib, TinyDesign(seed+int64(i))))
	}
	test := designForScale(scale, seed+100)
	pts, err := correlate.AccuracyCostCurve(train, test)
	if err != nil {
		return Fig8Result{}, err
	}
	return Fig8Result{Points: pts}, nil
}

// Print writes the curve.
func (r Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: accuracy-cost tradeoff in timing analysis\n")
	fmt.Fprintf(w, "%-16s %10s %10s %10s\n", "engine", "cost", "accuracy%", "MAE(ps)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-16s %10.2f %9.1f%% %10.2f\n", p.Name, p.CostUnits, p.AccuracyPct, p.MAEPs)
	}
}
