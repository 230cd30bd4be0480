package repro

// Second wave of extension experiments: the Sec. 3.1 last-mile robot
// applications, natural-structure (Rent) analysis, the floorplan/
// interconnect chicken-egg fixed point, missing-corner prediction, and
// project-level scheduling.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/campaign"
	"repro/internal/correlate"
	"repro/internal/drcfix"
	"repro/internal/floorplan"
	"repro/internal/memplace"
	"repro/internal/ml"
	"repro/internal/num"
	"repro/internal/partition"
	"repro/internal/pkglayout"
	"repro/internal/schedule"
	"repro/internal/sizing"
	"repro/internal/sta"
)

// LastMileResult compares robot engineers against naive baselines on
// the paper's four Sec. 3.1 applications.
type LastMileResult struct {
	// DRC fixing (application i): attempts to clean the field.
	DRCRobotAttempts, DRCNaiveAttempts float64
	// Timing closure (application ii): WNS improvement per timer run.
	TimingRobotWNSGain, TimingNaiveWNSGain float64
	// Memory placement (application iii): weighted wirelength.
	MemRobotWL, MemRandomWL float64
	// Package layout (application iv): crossings and length.
	PkgRobotCrossings, PkgGreedyCrossings int
	PkgRobotLen, PkgGreedyLen             float64
}

// LastMile runs all four robot-vs-baseline comparisons. Each trial is
// seeded explicitly, so the per-application trial loops fan out over the
// campaign engine; per-trial values are reduced in trial order to keep
// the floating-point sums identical to the serial loops.
func LastMile(scale Scale, seed int64) LastMileResult {
	var res LastMileResult
	trials := 6
	if scale == Paper {
		trials = 16
	}
	eng := campaign.New(campaign.Config{Workers: WorkerCount()})
	ctx := context.Background()

	// (i) DRC fixing.
	type drcTrial struct{ robot, naive float64 }
	drc, _, _ := campaign.Map(ctx, eng, trials, func(i int) drcTrial { //nolint:errcheck // background ctx never cancels
		s := int64(i)
		fr := drcfix.NewField(60, 12, seed+s)
		fn := drcfix.NewField(60, 12, seed+s)
		return drcTrial{
			robot: float64(drcfix.RunRobot(fr, 5000).Attempts),
			naive: float64(drcfix.RunNaive(fn, 5000).Attempts),
		}
	})
	for _, t := range drc {
		res.DRCRobotAttempts += t.robot / float64(trials)
		res.DRCNaiveAttempts += t.naive / float64(trials)
	}

	// (ii) Timing closure: expert path-driven sizing vs random
	// upsizing at the same timer budget.
	design := designForScale(scale, seed)
	rep := sta.Analyze(design, sta.Config{Engine: sta.Signoff})
	design.ClockPeriodPs = 1000 / rep.MaxFreqGHz * 0.88
	expert := design.Clone()
	fix := sizing.Fix(expert, sizing.Config{Seed: seed})
	if fix.TimerRuns > 0 {
		res.TimingRobotWNSGain = (fix.WNSAfter - fix.WNSBefore) / float64(fix.TimerRuns)
	}
	naive := design.Clone()
	rng := rand.New(num.NewRand(seed))
	before := sta.Analyze(naive, sta.Config{Engine: sta.Signoff})
	timerRuns := 1
	for pass := 0; pass < fix.TimerRuns-1; pass++ {
		for k := 0; k < fix.Upsized/max(1, fix.TimerRuns-1); k++ {
			id := rng.Intn(naive.NumCells())
			if up, ok := naive.Lib.Upsize(naive.Insts[id].Cell); ok {
				naive.Insts[id].Cell = up
			}
		}
		timerRuns++
	}
	after := sta.Analyze(naive, sta.Config{Engine: sta.Signoff})
	res.TimingNaiveWNSGain = (after.WNSPs - before.WNSPs) / float64(max(1, timerRuns))

	// (iii) Memory placement.
	type memTrial struct {
		robotWL, randomWL float64
		legal             bool
	}
	mem, _, _ := campaign.Map(ctx, eng, trials, func(i int) memTrial { //nolint:errcheck // background ctx never cancels
		s := int64(i)
		rng := rand.New(num.NewRand(seed + s))
		b := memplace.Block{W: 100, H: 100}
		macros := make([]memplace.Macro, 5)
		for i := range macros {
			macros[i] = memplace.Macro{
				Name: fmt.Sprintf("m%d", i),
				W:    8 + rng.Float64()*10, H: 8 + rng.Float64()*10,
				LogicX: 20 + rng.Float64()*60, LogicY: 20 + rng.Float64()*60,
				Weight: 1 + rng.Float64()*10,
			}
		}
		r := memplace.Robot(b, macros)
		n := memplace.Random(b, macros, seed+s+100)
		return memTrial{robotWL: r.WirelengthUm, randomWL: n.WirelengthUm, legal: r.Legal && n.Legal}
	})
	for _, t := range mem {
		if t.legal {
			res.MemRobotWL += t.robotWL / float64(trials)
			res.MemRandomWL += t.randomWL / float64(trials)
		}
	}

	// (iv) Package layout.
	type pkgTrial struct {
		robotCross, greedyCross int
		robotLen, greedyLen     float64
	}
	pkg, _, _ := campaign.Map(ctx, eng, trials, func(i int) pkgTrial { //nolint:errcheck // background ctx never cancels
		s := int64(i)
		rng := rand.New(num.NewRand(seed + s))
		sigs := make([]pkglayout.Signal, 14)
		for i := range sigs {
			sigs[i] = pkglayout.Signal{Name: fmt.Sprintf("s%d", i), Angle: rng.Float64() * 6.28, R: 10}
		}
		balls := pkglayout.Ring(18, 25)
		ra := pkglayout.Robot(sigs, balls)
		ga := pkglayout.Greedy(sigs, balls)
		return pkgTrial{
			robotCross:  pkglayout.Crossings(sigs, balls, ra),
			greedyCross: pkglayout.Crossings(sigs, balls, ga),
			robotLen:    pkglayout.Length(sigs, balls, ra),
			greedyLen:   pkglayout.Length(sigs, balls, ga),
		}
	})
	for _, t := range pkg {
		res.PkgRobotCrossings += t.robotCross
		res.PkgGreedyCrossings += t.greedyCross
		res.PkgRobotLen += t.robotLen / float64(trials)
		res.PkgGreedyLen += t.greedyLen / float64(trials)
	}
	return res
}

// Print writes the robot-vs-baseline table.
func (r LastMileResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Last-mile robot engineers (Sec. 3.1 applications)\n")
	fmt.Fprintf(w, "%-24s %14s %14s\n", "task", "robot", "baseline")
	fmt.Fprintf(w, "%-24s %14.1f %14.1f   (fix attempts to clean, lower better)\n",
		"(i) DRC fixing", r.DRCRobotAttempts, r.DRCNaiveAttempts)
	fmt.Fprintf(w, "%-24s %14.2f %14.2f   (WNS ps gained per timer run)\n",
		"(ii) timing closure", r.TimingRobotWNSGain, r.TimingNaiveWNSGain)
	fmt.Fprintf(w, "%-24s %14.1f %14.1f   (weighted macro WL, lower better)\n",
		"(iii) memory placement", r.MemRobotWL, r.MemRandomWL)
	fmt.Fprintf(w, "%-24s %10d wires %10d wires (crossings; lengths %.0f vs %.0f)\n",
		"(iv) package layout", r.PkgRobotCrossings, r.PkgGreedyCrossings, r.PkgRobotLen, r.PkgGreedyLen)
}

// StructureResult is the Rent/natural-structure analysis.
type StructureResult struct {
	// Exponents maps design family to measured Rent exponent.
	Exponents map[string]float64
	FitR2     map[string]float64
}

// NaturalStructure extracts intrinsic Rent parameters for the design
// families (ML application (ii): structure that permits partitioning).
func NaturalStructure(scale Scale, seed int64) StructureResult {
	lib := DefaultLibrary()
	levels := 3
	if scale == Paper {
		levels = 4
	}
	res := StructureResult{Exponents: map[string]float64{}, FitR2: map[string]float64{}}
	for _, spec := range []DesignSpec{PulpinoProxy(seed), Artificial(seed), TinyDesign(seed)} {
		n := NewDesign(lib, spec)
		r := partition.Rent(n, levels, seed)
		res.Exponents[spec.Name] = r.Exponent
		res.FitR2[spec.Name] = r.R2
	}
	return res
}

// Print writes the Rent table, one row per design family by name.
func (r StructureResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Natural structure: intrinsic Rent exponents\n")
	names := make([]string, 0, len(r.Exponents))
	for name := range r.Exponents {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-16s p = %.3f (fit R2 %.2f)\n", name, r.Exponents[name], r.FitR2[name])
	}
}

// ChickenEggResult is the floorplan/interconnect fixed-point study.
type ChickenEggResult struct {
	Iterations   int
	Converged    bool
	WLGrowthPct  float64 // fixed-point WL vs first-pass WL
	PredictionR2 float64 // ML prediction of the fixed point from initial features
}

// ChickenEgg runs the fixed-point loop on a netlist-derived instance and
// trains the fixed-point predictor on random cases (ML application (iv)).
func ChickenEgg(scale Scale, seed int64) ChickenEggResult {
	design := designForScale(scale, seed)
	blocks, conns := floorplan.FromNetlist(design, 2, seed)
	loop := floorplan.FixedPoint(blocks, conns, floorplan.LoopConfig{})
	res := ChickenEggResult{Iterations: loop.Iterations, Converged: loop.Converged}
	if len(loop.WireTrace) > 0 && loop.WireTrace[0] > 0 {
		final := loop.WireTrace[len(loop.WireTrace)-1]
		res.WLGrowthPct = (final - loop.WireTrace[0]) / loop.WireTrace[0] * 100
	}

	cases := 60
	if scale == Paper {
		cases = 150
	}
	rng := rand.New(num.NewRand(seed))
	var x [][]float64
	var y []float64
	for i := 0; i < cases; i++ {
		bl, cn := floorplan.RandomCase(rng, 4+rng.Intn(8))
		x = append(x, floorplan.Features(bl, cn, floorplan.LoopConfig{}))
		fp := floorplan.FixedPoint(bl, cn, floorplan.LoopConfig{})
		y = append(y, fp.WireTrace[len(fp.WireTrace)-1])
	}
	xtr, ytr, xte, yte := ml.Split(x, y, 0.25, seed)
	sc := ml.FitScaler(xtr)
	if reg, err := ml.FitRidge(sc.Transform(xtr), ytr, 1); err == nil {
		res.PredictionR2 = ml.R2(reg.PredictAll(sc.Transform(xte)), yte)
	}
	return res
}

// Print writes the fixed-point summary.
func (r ChickenEggResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Chicken-egg loop (floorplan <-> interconnect): converged=%t in %d iterations, WL grew %.1f%%\n",
		r.Converged, r.Iterations, r.WLGrowthPct)
	fmt.Fprintf(w, "fixed-point prediction from initial features: R2 = %.3f\n", r.PredictionR2)
}

// CornerResult is the missing-corner prediction study.
type CornerResult struct {
	ModelMAEPs    float64
	BaselineMAEPs float64
	CostSavedPct  float64 // of the 4-corner signoff cost
}

// MissingCorner trains TT/SS/FF -> SS-cold prediction and evaluates on a
// held-out design.
func MissingCorner(scale Scale, seed int64) (CornerResult, error) {
	lib := DefaultLibrary()
	var train []*Design
	nTrain := 4
	if scale == Paper {
		nTrain = 8
	}
	for i := 0; i < nTrain; i++ {
		train = append(train, NewDesign(lib, TinyDesign(seed+int64(i))))
	}
	test := designForScale(scale, seed+100)
	engine := sta.Config{Engine: sta.Signoff}
	m, err := correlate.TrainCorners(train, engine,
		[]sta.Corner{sta.CornerTT, sta.CornerSS, sta.CornerFF}, sta.CornerSSCold)
	if err != nil {
		return CornerResult{}, err
	}
	ev, err := m.Evaluate(test)
	if err != nil {
		return CornerResult{}, err
	}
	res := CornerResult{ModelMAEPs: ev.ModelMAEPs, BaselineMAEPs: ev.BaselineMAEPs}
	// One corner of four skipped.
	res.CostSavedPct = 25
	return res, nil
}

// Print writes the corner summary.
func (r CornerResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Missing-corner prediction: model MAE %.2f ps vs worst-corner baseline %.2f ps (%.0f%% of corner signoff cost avoided)\n",
		r.ModelMAEPs, r.BaselineMAEPs, r.CostSavedPct)
}

// ScheduleResult compares project-scheduling policies.
type ScheduleResult struct {
	Outcomes []schedule.Outcome
	// SavingsPct is the penalty-cost reduction of the best policy vs
	// FIFO.
	SavingsPct float64
}

// ProjectSchedule runs the portfolio comparison (ref [1], footnote 4).
func ProjectSchedule() (ScheduleResult, error) {
	projects := []schedule.Project{
		{Name: "soc-a", Release: 0, Due: 24, WorkEM: 60, MaxParallel: 6},
		{Name: "soc-b", Release: 2, Due: 8, WorkEM: 30, MaxParallel: 8},
		{Name: "ip-c", Release: 4, Due: 10, WorkEM: 20, MaxParallel: 4},
		{Name: "deriv-d", Release: 6, Due: 14, WorkEM: 24, MaxParallel: 6},
		{Name: "testchip-e", Release: 1, Due: 6, WorkEM: 10, MaxParallel: 4},
	}
	outs, err := schedule.Compare(projects, 10)
	if err != nil {
		return ScheduleResult{}, err
	}
	res := ScheduleResult{Outcomes: outs}
	var fifo, best float64
	for _, o := range outs {
		if o.Policy == "fifo" {
			fifo = o.TotalUSD
		}
	}
	best = outs[0].TotalUSD
	if fifo > 0 {
		res.SavingsPct = (fifo - best) / fifo * 100
	}
	return res, nil
}

// Print writes the scheduling comparison.
func (r ScheduleResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Project scheduling (5 projects, 10 engineers)\n")
	fmt.Fprintf(w, "%-16s %12s %12s %10s %6s\n", "policy", "penalty $", "total $", "late", "util")
	for _, o := range r.Outcomes {
		fmt.Fprintf(w, "%-16s %12.0f %12.0f %10d %5.0f%%\n",
			o.Policy, o.PenaltyUSD, o.TotalUSD, o.LateProjects, o.Utilization*100)
	}
	fmt.Fprintf(w, "best policy saves %.1f%% vs FIFO\n", r.SavingsPct)
}
