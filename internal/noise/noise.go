// Package noise characterizes SP&R implementation noise — the paper's
// Fig. 3 (refs [15][29]): post-implementation area scatters run-to-run
// under identical inputs, the scatter grows as the target frequency
// approaches the maximum achievable, and its distribution is essentially
// Gaussian.
package noise

import (
	"context"
	"math"

	"repro/internal/campaign"
	"repro/internal/ml"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// Point is the noise measurement at one target frequency.
type Point struct {
	TargetFreqGHz float64
	AreaSamples   []float64 // one per run seed
	MeanArea      float64
	StdArea       float64
	SpreadPct     float64 // (max-min)/mean * 100
	MetFrac       float64 // fraction of runs meeting timing
	JBStat        float64 // Jarque-Bera statistic of the samples
	JBPValue      float64
}

// Study is a full area-versus-target sweep.
type Study struct {
	Design string
	FMax   float64 // max achievable frequency (seed-0 bisection)
	Points []Point
}

// Config parameterizes the sweep.
type Config struct {
	Seeds int // runs per frequency point (default 20)
	// Targets are the frequencies to sample; if empty, a ramp from
	// 0.5*fmax to 1.02*fmax is generated with Steps points.
	Targets []float64
	Steps   int // default 8
	Seed    int64
	// Workers is the concurrent-run limit for the sweep (0 = one per
	// CPU). Per-run seeds are fixed by sweep position, so the results
	// are bit-identical at any worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Seeds <= 0 {
		c.Seeds = 20
	}
	if c.Steps <= 0 {
		c.Steps = 8
	}
	return c
}

// Sweep measures implementation noise across target frequencies.
func Sweep(design *netlist.Netlist, cfg Config) Study {
	cfg = cfg.withDefaults()
	st := Study{Design: design.Name}
	st.FMax = synth.MaxAchievableFreq(design, synth.Options{Seed: cfg.Seed}, 0.2, 5)
	targets := cfg.Targets
	if len(targets) == 0 {
		for i := 0; i < cfg.Steps; i++ {
			frac := 0.5 + (1.02-0.5)*float64(i)/float64(cfg.Steps-1)
			targets = append(targets, st.FMax*frac)
		}
	}
	// Fan the whole (target x seed) grid out over the campaign engine.
	// Each sample's seed is a pure function of its grid position —
	// exactly the serial loop's formula — so parallel execution is
	// bit-identical to the serial reference regardless of scheduling.
	type sample struct {
		area float64
		met  bool
	}
	eng := campaign.New(campaign.Config{Workers: cfg.Workers})
	grid := make([]sample, len(targets)*cfg.Seeds)
	campaign.Map(context.Background(), eng, len(grid), func(i int) struct{} { //nolint:errcheck
		ti, s := i/cfg.Seeds, i%cfg.Seeds
		r := synth.Run(design, synth.Options{
			TargetFreqGHz: targets[ti],
			Seed:          cfg.Seed + int64(1000*ti) + int64(s),
		})
		grid[i] = sample{area: r.AreaUm2, met: r.Met}
		return struct{}{}
	})
	for ti, f := range targets {
		p := Point{TargetFreqGHz: f}
		met := 0
		for s := 0; s < cfg.Seeds; s++ {
			g := grid[ti*cfg.Seeds+s]
			p.AreaSamples = append(p.AreaSamples, g.area)
			if g.met {
				met++
			}
		}
		p.MeanArea = ml.Mean(p.AreaSamples)
		p.StdArea = ml.StdDev(p.AreaSamples)
		if p.MeanArea > 0 {
			p.SpreadPct = (ml.Quantile(p.AreaSamples, 1) - ml.Quantile(p.AreaSamples, 0)) / p.MeanArea * 100
		}
		p.MetFrac = float64(met) / float64(cfg.Seeds)
		p.JBStat, p.JBPValue = ml.JarqueBera(p.AreaSamples)
		st.Points = append(st.Points, p)
	}
	return st
}

// NoiseGrowsTowardFMax reports whether the area scatter near fmax
// exceeds the scatter at relaxed targets — the Fig. 3 (left) shape.
func (st Study) NoiseGrowsTowardFMax() bool {
	if len(st.Points) < 2 {
		return false
	}
	lo := st.Points[0]
	hi := st.Points[len(st.Points)-1]
	return hi.StdArea > lo.StdArea
}

// AreaJumpPct returns the largest relative mean-area change between
// adjacent frequency points, in percent — the "area can change by 6%
// when target frequency changes by just 10MHz" observation.
func (st Study) AreaJumpPct() float64 {
	var worst float64
	for i := 1; i < len(st.Points); i++ {
		a, b := st.Points[i-1].MeanArea, st.Points[i].MeanArea
		if a <= 0 {
			continue
		}
		jump := math.Abs(b-a) / a * 100
		if jump > worst {
			worst = jump
		}
	}
	return worst
}

// GaussianAt fits a Gaussian to the samples of point i and returns the
// fit plus a histogram for the Fig. 3 (right) visual.
func (st Study) GaussianAt(i int, bins int) (ml.Gaussian, ml.Histogram) {
	p := st.Points[i]
	return ml.FitGaussian(p.AreaSamples), ml.NewHistogram(p.AreaSamples, bins)
}
