// Package gwtw implements the Go-With-The-Winners strategy of the
// paper's Fig. 6(a) (Aldous-Vazirani [2], applied to gate sizing in ref
// [24]): N optimization threads run concurrently; periodically the most
// promising threads are cloned while the least promising are terminated,
// keeping the population size constant and concentrating compute on good
// trajectories.
package gwtw

import (
	"math/rand"
	"sort"

	"repro/internal/num"
)

// Optimizer is one restartable local-search thread. Implementations are
// provided by internal/sizing (gate sizing) and internal/multistart's
// placement adapter; a test double lives in this package's tests.
type Optimizer interface {
	// Step performs one local-search move.
	Step(rng *rand.Rand)
	// Cost returns the current solution cost (lower is better).
	Cost() float64
	// Clone returns an independent deep copy of the thread.
	Clone() Optimizer
}

// Config parameterizes a GWTW run.
type Config struct {
	Population    int // N concurrent threads (default 8)
	Rounds        int // resampling rounds (default 10)
	StepsPerRound int // local-search steps between resamplings (default 50)
	// KeepFrac is the fraction of threads kept as winners each round;
	// the rest are replaced by clones of winners (default 0.5).
	KeepFrac float64
	Seed     int64
}

func (c Config) withDefaults() Config {
	if c.Population <= 0 {
		c.Population = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.StepsPerRound <= 0 {
		c.StepsPerRound = 50
	}
	if c.KeepFrac <= 0 || c.KeepFrac > 1 {
		c.KeepFrac = 0.5
	}
	return c
}

// Result summarizes a run.
type Result struct {
	BestCost float64
	Best     Optimizer
	// Trace[r] holds the population costs after round r (sorted
	// ascending) — the thread picture of Fig. 6(a).
	Trace      [][]float64
	TotalSteps int
	Clones     int
}

// Run executes GWTW. newThread(i) must create the i-th initial thread
// (typically identical problems with different random starts).
func Run(newThread func(i int) Optimizer, cfg Config) *Result {
	cfg = cfg.withDefaults()
	rng := rand.New(num.NewRand(cfg.Seed))
	pop := make([]Optimizer, cfg.Population)
	for i := range pop {
		pop[i] = newThread(i)
	}
	res := &Result{}
	for round := 0; round < cfg.Rounds; round++ {
		for _, th := range pop {
			for s := 0; s < cfg.StepsPerRound; s++ {
				th.Step(rng)
				res.TotalSteps++
			}
		}
		// Rank by cost.
		sort.Slice(pop, func(i, j int) bool { return pop[i].Cost() < pop[j].Cost() })
		costs := make([]float64, len(pop))
		for i, th := range pop {
			costs[i] = th.Cost()
		}
		res.Trace = append(res.Trace, costs)
		// Resample: keep the winners, replace losers with clones of
		// winners chosen uniformly (the "clone the most promising
		// thread while terminating other threads" step).
		if round < cfg.Rounds-1 {
			keep := int(float64(len(pop)) * cfg.KeepFrac)
			if keep < 1 {
				keep = 1
			}
			for i := keep; i < len(pop); i++ {
				pop[i] = pop[rng.Intn(keep)].Clone()
				res.Clones++
			}
		}
	}
	best := pop[0]
	for _, th := range pop[1:] {
		if th.Cost() < best.Cost() {
			best = th
		}
	}
	res.Best = best
	res.BestCost = best.Cost()
	return res
}

// RunIndependent is the multistart baseline at the same budget: the same
// number of threads and steps but no resampling. Used by the Fig. 6(a)
// bench to show GWTW's advantage at equal compute.
func RunIndependent(newThread func(i int) Optimizer, cfg Config) *Result {
	cfg = cfg.withDefaults()
	cfg.KeepFrac = 1 // no-op resampling
	return Run(newThread, cfg)
}
