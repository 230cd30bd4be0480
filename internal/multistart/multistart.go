// Package multistart implements adaptive multistart (the paper's Fig.
// 6(b), refs [5][12]): local optimization from many starts, where later
// start points are constructed from the structure of earlier
// locally-minimal solutions, exploiting the "big valley" property of
// combinatorial cost landscapes (good local minima cluster near each
// other and near the global minimum).
package multistart

import (
	"math/rand"

	"repro/internal/ml"
	"repro/internal/num"
)

// Problem is a combinatorial optimization instance with a solution-space
// metric (needed to measure and exploit big-valley structure).
type Problem interface {
	// RandomStart produces a fresh random solution.
	RandomStart(rng *rand.Rand) any
	// LocalOpt improves a solution in place for the given step budget
	// and returns it (may return a new value).
	LocalOpt(s any, rng *rand.Rand, steps int) any
	// Cost evaluates a solution.
	Cost(s any) float64
	// Distance is a metric between solutions.
	Distance(a, b any) float64
	// Combine constructs a new start from elite solutions (e.g. by
	// merging/voting). It should bias toward the elites' common
	// structure.
	Combine(elite []any, rng *rand.Rand) any
}

// Config parameterizes a multistart run.
type Config struct {
	Starts     int     // total local optimizations (default 12)
	ProbeFrac  float64 // fraction of starts used for the random probe phase (default 0.4)
	LocalSteps int     // local-search budget per start (default 500)
	EliteSize  int     // elites fed to Combine (default 3)
	Seed       int64
}

func (c Config) withDefaults() Config {
	if c.Starts <= 0 {
		c.Starts = 12
	}
	if c.ProbeFrac <= 0 || c.ProbeFrac >= 1 {
		c.ProbeFrac = 0.4
	}
	if c.LocalSteps <= 0 {
		c.LocalSteps = 500
	}
	if c.EliteSize <= 0 {
		c.EliteSize = 3
	}
	return c
}

// Result summarizes a run.
type Result struct {
	BestCost float64
	Best     any
	// Costs of every local minimum found, in discovery order.
	Costs []float64
	// CostDistanceCorr is the Pearson correlation between a local
	// minimum's cost and its distance to the best minimum — positive
	// correlation is the big-valley signature of Fig. 6(b).
	CostDistanceCorr float64
	AdaptiveStarts   int
}

// Adaptive runs big-valley-guided multistart: a probe phase of random
// starts, then the remaining budget from starts constructed out of the
// current elite set.
func Adaptive(p Problem, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rng := rand.New(num.NewRand(cfg.Seed))
	probes := int(float64(cfg.Starts) * cfg.ProbeFrac)
	if probes < 2 {
		probes = 2
	}
	if probes > cfg.Starts {
		probes = cfg.Starts
	}

	var minima []any
	res := &Result{}
	runStart := func(start any) {
		s := p.LocalOpt(start, rng, cfg.LocalSteps)
		minima = append(minima, s)
		res.Costs = append(res.Costs, p.Cost(s))
	}
	for i := 0; i < probes; i++ {
		runStart(p.RandomStart(rng))
	}
	for i := probes; i < cfg.Starts; i++ {
		elite := eliteOf(p, minima, cfg.EliteSize)
		runStart(p.Combine(elite, rng))
		res.AdaptiveStarts++
	}

	best := 0
	for i := range minima {
		if res.Costs[i] < res.Costs[best] {
			best = i
		}
	}
	res.Best = minima[best]
	res.BestCost = res.Costs[best]

	// Big-valley measurement: cost vs distance-to-best over all minima
	// except the best itself.
	var costs, dists []float64
	for i := range minima {
		if i == best {
			continue
		}
		costs = append(costs, res.Costs[i])
		dists = append(dists, p.Distance(minima[i], minima[best]))
	}
	res.CostDistanceCorr = ml.Pearson(costs, dists)
	return res
}

// Random runs the naive baseline: every start random, same total budget.
func Random(p Problem, cfg Config) *Result {
	cfg = cfg.withDefaults()
	cfg.ProbeFrac = 0.999999 // all starts are probes
	r := Adaptive(p, cfg)
	r.AdaptiveStarts = 0
	return r
}

// eliteOf returns the k lowest-cost minima.
func eliteOf(p Problem, minima []any, k int) []any {
	type sc struct {
		s any
		c float64
	}
	scored := make([]sc, len(minima))
	for i, s := range minima {
		scored[i] = sc{s: s, c: p.Cost(s)}
	}
	// Partial selection sort: k is tiny.
	if k > len(scored) {
		k = len(scored)
	}
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(scored); j++ {
			if scored[j].c < scored[min].c {
				min = j
			}
		}
		scored[i], scored[min] = scored[min], scored[i]
	}
	elite := make([]any, k)
	for i := 0; i < k; i++ {
		elite[i] = scored[i].s
	}
	return elite
}
