package repro

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/flow"
	"repro/internal/noise"
	"repro/internal/place"
)

// Scale selects experiment size: Small targets seconds of runtime for
// tests and CI; Paper targets the paper's actual sample counts.
type Scale int

// Experiment scales.
const (
	Small Scale = iota
	Paper
)

// ---------------------------------------------------------------------
// Figure 1: Design Capability Gap.

// Fig1Result is the available-vs-realized density series.
type Fig1Result struct {
	Points []costmodel.DensityPoint
}

// Fig1 regenerates the Design Capability Gap series (1995-2015).
func Fig1() Fig1Result {
	return Fig1Result{Points: costmodel.CapabilityGap(1995, 2015)}
}

// Print writes the series as a table.
func (r Fig1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 1: Design Capability Gap (available vs realized MTr/mm^2)\n")
	fmt.Fprintf(w, "%-6s %12s %12s %8s\n", "year", "available", "realized", "gap")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d %12.2f %12.2f %7.2fx\n", p.Year, p.AvailableMT, p.RealizedMT, p.GapFactor)
	}
}

// ---------------------------------------------------------------------
// Figure 2: Design cost and transistor count trends.

// Fig2Result holds the three cost trajectories of the ITRS model.
type Fig2Result struct {
	WithInnovation []costmodel.YearPoint // DT delivered on time
	NoPost2013     []costmodel.YearPoint // footnote-1 counterfactual
	NoPost2000     []costmodel.YearPoint // footnote-1 counterfactual
}

// Fig2 regenerates the design-cost trajectories (2013-2028 horizon).
func Fig2() Fig2Result {
	p := costmodel.Default()
	inn := costmodel.DefaultInnovations()
	return Fig2Result{
		WithInnovation: costmodel.Project(p, inn, 1995, 2028, 3000),
		NoPost2013:     costmodel.Project(p, inn, 2013, 2028, 2013),
		NoPost2000:     costmodel.Project(p, inn, 2013, 2028, 2000),
	}
}

// Print writes the trajectories.
func (r Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: SOC-CP design cost trajectories\n")
	fmt.Fprintf(w, "%-6s %14s %16s %16s %16s %10s\n",
		"year", "transistors", "cost (DT on time)", "no post-2013 DT", "no post-2000 DT", "verif%")
	no13 := map[int]float64{}
	for _, p := range r.NoPost2013 {
		no13[p.Year] = p.DesignCostUSD
	}
	no00 := map[int]float64{}
	for _, p := range r.NoPost2000 {
		no00[p.Year] = p.DesignCostUSD
	}
	for _, p := range r.WithInnovation {
		if p.Year < 2013 || p.Year%3 != 0 && p.Year != 2028 {
			continue
		}
		fmt.Fprintf(w, "%-6d %14.3g %16s %16s %16s %9.0f%%\n",
			p.Year, p.Transistors, usd(p.DesignCostUSD), usd(no13[p.Year]), usd(no00[p.Year]), p.VerifShare*100)
	}
}

func usd(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("$%.2fB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("$%.1fM", v/1e6)
	default:
		return fmt.Sprintf("$%.0fK", v/1e3)
	}
}

// ---------------------------------------------------------------------
// Figure 3: SP&R implementation noise.

// Fig3Result is the noise study plus headline numbers.
type Fig3Result struct {
	Study       noise.Study
	AreaJumpPct float64
	// GaussianPValue is the Jarque-Bera p-value at the near-fmax
	// point (the Fig. 3 right histogram).
	GaussianPValue float64
	NoiseGrows     bool
}

// Fig3 measures area-vs-target noise on the PULPino proxy.
func Fig3(scale Scale, seed int64) Fig3Result {
	lib := DefaultLibrary()
	var design *Design
	cfg := noise.Config{Seed: seed, Workers: WorkerCount()}
	if scale == Paper {
		design = NewDesign(lib, PulpinoProxy(seed))
		cfg.Seeds = 40
		cfg.Steps = 10
	} else {
		design = NewDesign(lib, TinyDesign(seed))
		cfg.Seeds = 12
		cfg.Steps = 5
	}
	st := noise.Sweep(design, cfg)
	res := Fig3Result{
		Study:       st,
		AreaJumpPct: st.AreaJumpPct(),
		NoiseGrows:  st.NoiseGrowsTowardFMax(),
	}
	if len(st.Points) > 0 {
		res.GaussianPValue = st.Points[len(st.Points)-1].JBPValue
	}
	return res
}

// Print writes the sweep.
func (r Fig3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: implementation noise on %s (fmax %.3f GHz)\n", r.Study.Design, r.Study.FMax)
	fmt.Fprintf(w, "%-12s %12s %10s %10s %8s %8s\n", "target(GHz)", "mean area", "std", "spread%", "met%", "JB p")
	for _, p := range r.Study.Points {
		fmt.Fprintf(w, "%-12.3f %12.1f %10.2f %9.2f%% %7.0f%% %8.3f\n",
			p.TargetFreqGHz, p.MeanArea, p.StdArea, p.SpreadPct, p.MetFrac*100, p.JBPValue)
	}
	fmt.Fprintf(w, "max adjacent-target area jump: %.1f%%; noise grows toward fmax: %t\n",
		r.AreaJumpPct, r.NoiseGrows)
}

// ---------------------------------------------------------------------
// Figure 4: margins, predictability and achieved quality.

// Fig4Row is one (noise regime, margin policy) outcome.
type Fig4Row struct {
	Regime        string
	Sigma         float64
	OptimalMargin float64
	Quality       float64 // achieved frequency fraction
	Iterations    float64 // expected flow passes
}

// Fig4 quantifies the coevolution loop: today's noisy tools versus a
// predictable future, at the same schedule budget.
func Fig4(iterBudget float64) []Fig4Row {
	regimes := []struct {
		name  string
		model core.MarginModel
	}{
		{"today (noisy, flat flow)", core.MarginModel{Sigma: 0.06, Bias: 0.01}},
		{"future (predictable, partitioned)", core.MarginModel{Sigma: 0.015, Bias: 0.005}},
	}
	var rows []Fig4Row
	for _, r := range regimes {
		m := r.model.OptimalMargin(iterBudget)
		rows = append(rows, Fig4Row{
			Regime:        r.name,
			Sigma:         r.model.Sigma,
			OptimalMargin: m,
			Quality:       r.model.AchievedQuality(m),
			Iterations:    r.model.ExpectedIterations(m),
		})
	}
	return rows
}

// PrintFig4 writes the margin comparison.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "Figure 4: margins vs predictability (schedule budget in expected passes)\n")
	fmt.Fprintf(w, "%-36s %8s %8s %9s %6s\n", "regime", "sigma", "margin", "quality", "iters")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %8.3f %7.1f%% %8.1f%% %6.2f\n",
			r.Regime, r.Sigma, r.OptimalMargin*100, r.Quality*100, r.Iterations)
	}
}

// ---------------------------------------------------------------------
// Figure 4(b)'s lever: many more small subproblems.

// PartitioningResult places one design flat (1x1) and in 2x2 and 4x4
// independently placed regions.
type PartitioningResult struct {
	Design  string
	Cells   int
	Regions []int
	Places  []place.Result // HPWLUm, and ParallelRuntimeProxy as the TAT
}

// Partitioning is the "many more small subproblems" lever of Fig. 4(b):
// more regions trade wirelength for turnaround time.
func Partitioning(scale Scale, seed int64) PartitioningResult {
	design := designForScale(scale, seed)
	res := PartitioningResult{Design: design.Name, Cells: design.NumCells(), Regions: []int{1, 2, 4}}
	for _, k := range res.Regions {
		res.Places = append(res.Places, place.Place(design.Clone(), place.Options{Seed: seed, Partitions: k}))
	}
	return res
}

// Print writes each placement against the flat one.
func (r PartitioningResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 4(b) lever: partitioned placement (%s, %d cells)\n", r.Design, r.Cells)
	fmt.Fprintf(w, "%-8s %10s %8s %12s %8s\n", "regions", "HPWL(um)", "vs flat", "parallel TAT", "speedup")
	flat := r.Places[0]
	for i, p := range r.Places {
		fmt.Fprintf(w, "%-8s %10.0f %+7.1f%% %12d %7.2fx\n", fmt.Sprintf("%dx%[1]d", r.Regions[i]), p.HPWLUm,
			100*(p.HPWLUm/flat.HPWLUm-1), p.ParallelRuntimeProxy, float64(flat.ParallelRuntimeProxy)/float64(p.ParallelRuntimeProxy))
	}
}

// ---------------------------------------------------------------------
// Figure 5: the flow-option trajectory tree.

// Fig5Result quantifies the option-tree explosion.
type Fig5Result struct {
	Steps           []core.StepSpec
	SinglePass      float64
	WithThreeIters  float64
	Explored200Runs float64 // fraction covered by a 200-run budget
}

// Fig5 computes the trajectory-tree numbers.
func Fig5() Fig5Result {
	steps := core.DefaultFlowTree()
	return Fig5Result{
		Steps:           steps,
		SinglePass:      core.Trajectories(steps),
		WithThreeIters:  core.TrajectoriesWithIteration(steps, 3),
		Explored200Runs: core.ExploredFraction(steps, 200),
	}
}

// Print writes the tree summary.
func (r Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5: flow-option tree\n")
	for _, s := range r.Steps {
		fmt.Fprintf(w, "  %-12s %3d options\n", s.Name, s.Options)
	}
	fmt.Fprintf(w, "single-pass trajectories: %.3g\n", r.SinglePass)
	fmt.Fprintf(w, "with up to 3 iterations:  %.3g\n", r.WithThreeIters)
	fmt.Fprintf(w, "fraction explored by 200 runs: %.3g\n", r.Explored200Runs)
}

// designForScale builds the standard experiment design.
func designForScale(scale Scale, seed int64) *Design {
	if scale == Paper {
		return NewDesign(DefaultLibrary(), PulpinoProxy(seed))
	}
	return NewDesign(DefaultLibrary(), TinyDesign(seed))
}

// flowBase returns the baseline flow options used by search experiments.
func flowBase(seed int64) flow.Options { return flow.Options{Seed: seed} }
