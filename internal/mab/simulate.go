package mab

import (
	"math/rand"

	"repro/internal/num"
)

// Environment produces stochastic rewards per arm. Implementations range
// from synthetic Bernoulli test beds to the real flow sampler in
// internal/core (arms = target frequencies, reward = constrained success).
type Environment interface {
	NumArms() int
	// Reward draws one reward in [0,1] for an arm.
	Reward(arm int, rng *rand.Rand) float64
	// OptimalMean returns the best arm's expected reward, for regret
	// accounting (may be an estimate).
	OptimalMean() float64
}

// Bernoulli is a synthetic environment with fixed success probabilities.
type Bernoulli struct {
	Probs []float64
}

// NumArms implements Environment.
func (b Bernoulli) NumArms() int { return len(b.Probs) }

// Reward implements Environment.
func (b Bernoulli) Reward(arm int, rng *rand.Rand) float64 {
	if rng.Float64() < b.Probs[arm] {
		return 1
	}
	return 0
}

// OptimalMean implements Environment.
func (b Bernoulli) OptimalMean() float64 {
	best := 0.0
	for _, p := range b.Probs {
		if p > best {
			best = p
		}
	}
	return best
}

// GaussianArms is a synthetic environment with Gaussian rewards clipped
// to [0,1] — the i.i.d.-noise abstraction of tool outcomes (paper: the
// reward from each arm is i.i.d.; "recall Figure 3").
type GaussianArms struct {
	Means  []float64
	Sigmas []float64
}

// NumArms implements Environment.
func (g GaussianArms) NumArms() int { return len(g.Means) }

// Reward implements Environment.
func (g GaussianArms) Reward(arm int, rng *rand.Rand) float64 {
	r := g.Means[arm] + g.Sigmas[arm]*rng.NormFloat64()
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	return r
}

// OptimalMean implements Environment.
func (g GaussianArms) OptimalMean() float64 {
	best := 0.0
	for _, m := range g.Means {
		if m > best {
			best = m
		}
	}
	return best
}

// Pull records one sample: which arm was pulled at which iteration and
// what came back.
type Pull struct {
	Iteration int
	Slot      int // concurrent-run slot (license) index
	Arm       int
	Reward    float64
}

// History is the full trace of a batched bandit run.
type History struct {
	Algorithm string
	Pulls     []Pull
	// BestSoFar[t] is the best reward observed up to and including
	// iteration t (the "best from 5 samples x N iterations" trace of
	// Fig. 7).
	BestSoFar []float64
	// MeanReward[t] is the mean reward of iteration t's batch.
	MeanReward []float64
	// CumRegret[t] is cumulative expected regret after iteration t,
	// using the environment's OptimalMean.
	CumRegret []float64
	// ArmCounts[a] is the total number of pulls of each arm.
	ArmCounts []int
}

// TotalReward sums all observed rewards.
func (h *History) TotalReward() float64 {
	var s float64
	for _, p := range h.Pulls {
		s += p.Reward
	}
	return s
}

// FinalRegret returns the cumulative regret at the end of the run.
func (h *History) FinalRegret() float64 {
	if len(h.CumRegret) == 0 {
		return 0
	}
	return h.CumRegret[len(h.CumRegret)-1]
}

// Config parameterizes a batched simulation.
type Config struct {
	Iterations int // outer iterations (paper Fig. 7: 40)
	Concurrent int // samples per iteration = concurrent tool runs (paper: 5)
	Seed       int64
}

// Simulate runs the policy against the environment: each iteration
// selects Concurrent arms (a batch, as with K parallel tool licenses),
// draws their rewards, then updates the policy with the whole batch.
// Updates happen only at batch boundaries, matching how concurrent EDA
// runs report results.
//
// Each slot draws its reward from its own generator, sub-seeded from
// the policy's stream when the batch is selected, so slot k of
// iteration t always sees the same sub-seed for a given cfg.Seed. The
// generator is math/rand's stream from a num.Rand, which seeds lazily: a
// reward takes a few draws, and math/rand's seeding alone costs more.
func Simulate(alg Algorithm, env Environment, cfg Config) *History {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 40
	}
	if cfg.Concurrent <= 0 {
		cfg.Concurrent = 5
	}
	rng := rand.New(num.NewRand(cfg.Seed))
	h := &History{Algorithm: alg.Name(), ArmCounts: make([]int, env.NumArms())}
	best := 0.0
	regret := 0.0
	opt := env.OptimalMean()
	for t := 0; t < cfg.Iterations; t++ {
		arms := make([]int, cfg.Concurrent)
		seeds := make([]int64, cfg.Concurrent)
		for k := range arms {
			arms[k] = alg.Select(rng)
			seeds[k] = rng.Int63()
		}
		rewards := make([]float64, cfg.Concurrent)
		for k := range rewards {
			rewards[k] = env.Reward(arms[k], rand.New(num.NewRand(seeds[k])))
		}
		var batchSum float64
		for k, a := range arms {
			r := rewards[k]
			h.Pulls = append(h.Pulls, Pull{Iteration: t, Slot: k, Arm: a, Reward: r})
			h.ArmCounts[a]++
			batchSum += r
			if r > best {
				best = r
			}
			regret += opt - meanOfEnv(env, a)
		}
		for k, a := range arms {
			alg.Update(a, rewards[k])
		}
		h.BestSoFar = append(h.BestSoFar, best)
		h.MeanReward = append(h.MeanReward, batchSum/float64(cfg.Concurrent))
		h.CumRegret = append(h.CumRegret, regret)
	}
	return h
}

// meanOfEnv returns the true mean of an arm where the environment can
// tell us (synthetic test beds); otherwise regret falls back to observed
// reward distance.
func meanOfEnv(env Environment, arm int) float64 {
	switch e := env.(type) {
	case Bernoulli:
		return e.Probs[arm]
	case GaussianArms:
		return e.Means[arm]
	case *Bernoulli:
		return e.Probs[arm]
	case *GaussianArms:
		return e.Means[arm]
	default:
		return env.OptimalMean() // unknown: zero per-step regret floor
	}
}
