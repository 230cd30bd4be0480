package core

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/mab"
	"repro/internal/netlist"
	"repro/internal/sched"
)

// SearchConfig parameterizes the Stage-2 orchestrated search: N robot
// engineers concurrently sampling flow targets under a license pool,
// steered by a bandit policy (the paper's 5 concurrent samples x 40
// iterations regime).
type SearchConfig struct {
	Freqs      []float64 // arms (target frequencies)
	Iterations int       // default 40
	Licenses   int       // concurrent tool runs, default 5
	Algorithm  string    // "thompson" (default), "softmax", "eps-greedy", "ucb1"
	Seed       int64
	// FreqWeighted shapes rewards by frequency (see FreqArms).
	FreqWeighted bool
	// Cache memoizes flow runs, so searches sharing a design reuse each
	// other's samples (optional). Arm selection and seeding are
	// unaffected; only recomputation is skipped.
	Cache *campaign.Cache
}

// NewAlgorithm builds a bandit policy by name over n arms.
func NewAlgorithm(name string, n int) (mab.Algorithm, error) {
	switch name {
	case "", "thompson":
		return mab.NewThompson(n), nil
	case "softmax":
		return mab.NewSoftmax(n, 0.1), nil
	case "eps-greedy":
		return mab.NewEpsilonGreedy(n, 0.1), nil
	case "ucb1":
		return mab.NewUCB1(n), nil
	default:
		return nil, fmt.Errorf("core: unknown bandit algorithm %q", name)
	}
}

// SamplePoint is one concurrent tool run in the search trace (one dot of
// Fig. 7).
type SamplePoint struct {
	Iteration int
	Slot      int
	FreqGHz   float64
	Satisfied bool
	AreaUm2   float64
	Runtime   float64
}

// SearchResult is the Stage-2 outcome.
type SearchResult struct {
	Algorithm string
	Samples   []SamplePoint
	// BestFreqSoFar[t] is the highest satisfied frequency found up to
	// iteration t — the solid line of Fig. 7.
	BestFreqSoFar []float64
	BestFreqGHz   float64
	BestArea      float64
	TotalRuns     int
	TotalRuntime  float64
	PeakLicenses  int
}

// Search runs the orchestrated bandit search over flow targets. Flow
// runs within an iteration execute concurrently on the campaign engine
// under the license pool; the policy is updated at iteration boundaries,
// exactly as concurrent EDA runs report. Arm choices and per-run seeds
// are drawn before each batch fans out, so the trace is deterministic in
// cfg.Seed no matter how the pool schedules the runs.
func Search(design *netlist.Netlist, base flow.Options, cons flow.Constraints, cfg SearchConfig) (*SearchResult, error) {
	if len(cfg.Freqs) == 0 {
		return nil, fmt.Errorf("core: no frequency arms")
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 40
	}
	if cfg.Licenses <= 0 {
		cfg.Licenses = 5
	}
	alg, err := NewAlgorithm(cfg.Algorithm, len(cfg.Freqs))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := sched.NewPool(cfg.Licenses)
	eng := campaign.New(campaign.Config{Pool: pool, Cache: cfg.Cache})
	designKey := ""
	if cfg.Cache != nil {
		designKey = campaign.KeyFor(design)
	}
	res := &SearchResult{Algorithm: alg.Name()}

	maxFreq := cfg.Freqs[0]
	for _, f := range cfg.Freqs {
		if f > maxFreq {
			maxFreq = f
		}
	}

	for t := 0; t < cfg.Iterations; t++ {
		arms := make([]int, cfg.Licenses)
		pts := make([]campaign.Point, cfg.Licenses)
		for k := range arms {
			arms[k] = alg.Select(rng)
			opts := base
			opts.TargetFreqGHz = cfg.Freqs[arms[k]]
			opts.Seed = rng.Int63()
			pts[k] = campaign.NewPoint(design, designKey, opts)
		}
		outs, err := eng.Run(context.Background(), pts)
		if err != nil {
			return nil, err
		}
		for k, o := range outs {
			f := cfg.Freqs[arms[k]]
			ok := cons.Satisfied(o)
			res.Samples = append(res.Samples, SamplePoint{
				Iteration: t, Slot: k, FreqGHz: f,
				Satisfied: ok, AreaUm2: o.AreaUm2, Runtime: o.RuntimeProxy,
			})
			res.TotalRuns++
			res.TotalRuntime += o.RuntimeProxy
			reward := 0.0
			if ok {
				if f > res.BestFreqGHz {
					res.BestFreqGHz = f
					res.BestArea = o.AreaUm2
				}
				reward = 1
				if cfg.FreqWeighted {
					reward = f / maxFreq
				}
			}
			alg.Update(arms[k], reward)
		}
		res.BestFreqSoFar = append(res.BestFreqSoFar, res.BestFreqGHz)
	}
	res.PeakLicenses, _, _ = pool.Stats()
	return res, nil
}
