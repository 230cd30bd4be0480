// Package logfile models detailed-router tool logfiles: the per-iteration
// DRV time series that the paper's doomed-run predictors consume.
//
// The paper trains its MDP on 1200 logfiles from artificial layouts and
// tests on 3742 logfiles from floorplans of an embedded CPU. Neither
// corpus is public, so this package regenerates equivalents by sweeping
// the detailed-routing simulator across designs, placements, routing
// supplies and run seeds — yielding the same observable: noisy DRV
// series, a mix of doomed and successful, with the paper's <200-DRV
// success criterion.
package logfile

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/num"
	"repro/internal/place"
	"repro/internal/route"
)

// Run is one detailed-routing tool run's observable record.
type Run struct {
	ID      int
	Design  string
	Corpus  string
	DRVs    []int // per-iteration violation counts (index 0 = initial)
	Final   int
	Success bool // Final < route.SuccessDRVThreshold
	// StoppedAt is the iteration a live supervisor STOPped the run
	// (0 = ran to its full budget). Only set by supervised generation;
	// the text logfile format does not carry it.
	StoppedAt int
}

// FromDetail converts a simulator result into a logfile record.
func FromDetail(id int, design, corpus string, res *route.DetailResult) Run {
	return Run{
		ID: id, Design: design, Corpus: corpus,
		DRVs:      append([]int(nil), res.DRVs...),
		Final:     res.Final,
		Success:   res.Success,
		StoppedAt: res.StopIter,
	}
}

// CorpusSpec parameterizes corpus generation.
type CorpusSpec struct {
	Name string
	Runs int
	Seed int64
	// Designs is how many distinct design+placement substrates to
	// build (runs are spread across them). Default 6.
	Designs int
	// DesignSpec builds the i-th design spec. Default: artificial
	// layouts for the "artificial" corpus name, embedded-CPU floorplan
	// proxies otherwise.
	DesignSpec func(i int, seed int64) netlist.Spec
	// TrackSupplies are the routing-capacity settings swept to produce
	// a mix of comfortable and congested runs. Default covers both.
	TrackSupplies []float64
	// Iterations per detailed-route run (default 20).
	Iterations int
	// Workers is the concurrent-run limit for corpus generation (0 = one
	// per CPU). All rng seeds are pre-drawn in the serial loop's order
	// before any work fans out, so the corpus is bit-identical at any
	// worker count.
	Workers int
	// Supervise, when set, returns the per-run live iteration hook
	// wired into route.DetailRouteCtx — the doomed-run card acting
	// while runs execute. A supervised corpus's unstopped runs are
	// bit-identical to the unsupervised corpus (the hook never touches
	// the rng stream); stopped runs are truncated with StoppedAt set.
	Supervise func(id int, design string) route.IterHook
}

func (c CorpusSpec) withDefaults() CorpusSpec {
	if c.Runs <= 0 {
		c.Runs = 100
	}
	if c.Designs <= 0 {
		c.Designs = 6
	}
	if c.DesignSpec == nil {
		if c.Name == "artificial" {
			c.DesignSpec = func(i int, seed int64) netlist.Spec { return netlist.Artificial(seed + int64(i)) }
		} else {
			c.DesignSpec = func(i int, seed int64) netlist.Spec { return netlist.EmbeddedCPU(seed + int64(i)) }
		}
	}
	if len(c.TrackSupplies) == 0 {
		// Capacity-to-mean-demand ratios spanning clearly congested
		// (doomed) through comfortable (successful); the generator
		// normalizes by each design's measured routing demand so every
		// corpus mixes both outcomes regardless of design size.
		// The band around the congestion crossover (~0.9-1.8) is
		// deliberately sparse: real flows target feasible-but-tight
		// supply, and the paper's Fig. 9 curves separate cleanly into
		// success and doomed.
		c.TrackSupplies = []float64{0.5, 0.7, 1.3, 2.0, 2.6, 3.4}
	}
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	return c
}

// Generate builds a corpus of detailed-routing logfiles by sweeping
// designs, routing supplies and run seeds through the route simulator.
// Substrate construction fans out per design and detailed routing fans
// out per run on the campaign engine; every rng seed is pre-drawn in the
// order the serial loop consumed them, so the corpus does not depend on
// scheduling.
func Generate(spec CorpusSpec) []Run {
	spec = spec.withDefaults()
	rng := rand.New(num.NewRand(spec.Seed))
	lib := cellib.Default14nm()
	eng := campaign.New(campaign.Config{Workers: spec.Workers})
	ctx := context.Background()

	// Pre-draw every seed in the serial loop's interleaved order: per
	// design, one probe draw then one draw per track supply; then one
	// draw per run.
	nSupply := len(spec.TrackSupplies)
	probeSeeds := make([]int64, spec.Designs)
	supplySeeds := make([]int64, spec.Designs*nSupply)
	for i := 0; i < spec.Designs; i++ {
		probeSeeds[i] = rng.Int63()
		for j := 0; j < nSupply; j++ {
			supplySeeds[i*nSupply+j] = rng.Int63()
		}
	}
	runSeeds := make([]int64, spec.Runs)
	for id := range runSeeds {
		runSeeds[id] = rng.Int63()
	}

	// Build the congestion substrates: per design, per track supply,
	// one global-routing result. Each design's build is independent.
	type substrate struct {
		design string
		g      *route.GlobalResult
	}
	subs := make([]substrate, spec.Designs*nSupply)
	campaign.Map(ctx, eng, spec.Designs, func(i int) struct{} { //nolint:errcheck // background ctx never cancels
		ds := spec.DesignSpec(i, spec.Seed)
		n := netlist.Generate(lib, ds)
		place.Place(n, place.Options{
			Seed:  spec.Seed + int64(i),
			Moves: 25 * n.NumCells(),
		})
		// Probe the design's routing demand with unconstrained
		// capacity; TrackSupplies are ratios against the mean edge
		// demand, so corpora straddle the congestion crossover for
		// designs of any size.
		probe := route.GlobalRoute(n, route.GlobalOptions{
			Seed:          probeSeeds[i],
			TracksPerEdge: math.Inf(1),
		})
		var meanDemand float64
		for _, d := range probe.Demand {
			meanDemand += d
		}
		meanDemand /= float64(len(probe.Demand))
		if meanDemand < 1 {
			meanDemand = 1
		}
		for j, ratio := range spec.TrackSupplies {
			g := route.GlobalRoute(n, route.GlobalOptions{
				Seed:          supplySeeds[i*nSupply+j],
				TracksPerEdge: ratio * meanDemand,
			})
			subs[i*nSupply+j] = substrate{design: fmt.Sprintf("%s-%d", ds.Name, i), g: g}
		}
		return struct{}{}
	})

	runs := make([]Run, spec.Runs)
	campaign.Map(ctx, eng, spec.Runs, func(id int) struct{} { //nolint:errcheck // background ctx never cancels
		s := subs[id%len(subs)]
		opts := route.DetailOptions{
			Iterations: spec.Iterations,
			Seed:       runSeeds[id],
		}
		if spec.Supervise != nil {
			opts.IterHook = spec.Supervise(id, s.design)
		}
		res := route.DetailRouteCtx(ctx, s.g, opts)
		runs[id] = FromDetail(id, s.design, spec.Name, res)
		return struct{}{}
	})
	return runs
}

// Stats summarizes a corpus.
type Stats struct {
	Runs       int
	Successes  int
	Doomed     int
	AvgFinal   float64
	AvgInitial float64
}

// Summarize computes corpus statistics.
func Summarize(runs []Run) Stats {
	s := Stats{Runs: len(runs)}
	for _, r := range runs {
		if r.Success {
			s.Successes++
		} else {
			s.Doomed++
		}
		s.AvgFinal += float64(r.Final)
		if len(r.DRVs) > 0 {
			s.AvgInitial += float64(r.DRVs[0])
		}
	}
	if len(runs) > 0 {
		s.AvgFinal /= float64(len(runs))
		s.AvgInitial /= float64(len(runs))
	}
	return s
}
