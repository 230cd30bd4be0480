package repro

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig1Shape(t *testing.T) {
	r := Fig1()
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	last := r.Points[len(r.Points)-1]
	if last.GapFactor <= 1 {
		t.Errorf("gap by 2015 should exceed 1x: %v", last.GapFactor)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Design Capability Gap") {
		t.Error("print output malformed")
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	// The counterfactual cost must explode relative to the on-time
	// trajectory by 2028.
	with := r.WithInnovation[len(r.WithInnovation)-1]
	no13 := r.NoPost2013[len(r.NoPost2013)-1]
	if with.Year != 2028 || no13.Year != 2028 {
		t.Fatal("horizon mismatch")
	}
	if no13.DesignCostUSD < 10*with.DesignCostUSD {
		t.Errorf("counterfactual should dwarf on-time cost: %v vs %v", no13.DesignCostUSD, with.DesignCostUSD)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "2028") {
		t.Error("print output missing horizon")
	}
}

func TestFig3Shape(t *testing.T) {
	r := Fig3(Small, 1)
	if len(r.Study.Points) == 0 {
		t.Fatal("no sweep points")
	}
	if !r.NoiseGrows {
		t.Error("noise should grow toward fmax")
	}
	if r.AreaJumpPct <= 0 {
		t.Error("no area jump measured")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "fmax") {
		t.Error("print malformed")
	}
}

func TestFig4Shape(t *testing.T) {
	rows := Fig4(2.0)
	if len(rows) != 2 {
		t.Fatal("want 2 regimes")
	}
	today, future := rows[0], rows[1]
	if future.OptimalMargin >= today.OptimalMargin {
		t.Errorf("future margin %v should be below today's %v", future.OptimalMargin, today.OptimalMargin)
	}
	if future.Quality <= today.Quality {
		t.Error("future quality should beat today's")
	}
	var buf bytes.Buffer
	PrintFig4(&buf, rows)
	if !strings.Contains(buf.String(), "margin") {
		t.Error("print malformed")
	}
}

func TestFig5Shape(t *testing.T) {
	r := Fig5()
	if r.SinglePass <= 0 || r.WithThreeIters <= r.SinglePass {
		t.Fatalf("tree numbers wrong: %v %v", r.SinglePass, r.WithThreeIters)
	}
	if r.Explored200Runs >= 0.01 {
		t.Errorf("200 runs should explore a tiny fraction, got %v", r.Explored200Runs)
	}
}

func TestFig6aShape(t *testing.T) {
	r := Fig6a(Small, 1)
	if r.GWTWCost <= 0 || r.IndependentCost <= 0 {
		t.Fatal("missing costs")
	}
	// GWTW should be competitive with independent multistart at equal
	// budget (the paper's premise; not a strict dominance claim on one
	// seed).
	if r.GWTWCost > r.IndependentCost*1.25 {
		t.Errorf("GWTW %v much worse than independent %v", r.GWTWCost, r.IndependentCost)
	}
}

func TestFig6bShape(t *testing.T) {
	r := Fig6b(Small, 1)
	if r.AdaptiveBest <= 0 || r.RandomBest <= 0 {
		t.Fatal("missing costs")
	}
	if r.AdaptiveBest > r.RandomBest*1.15 {
		t.Errorf("adaptive %v much worse than random %v", r.AdaptiveBest, r.RandomBest)
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Main.TotalRuns != 10*5 {
		t.Fatalf("total runs %d", r.Main.TotalRuns)
	}
	if r.Main.BestFreqGHz <= 0 {
		t.Fatal("no feasible frequency found")
	}
	// The ladder straddles feasibility: the 3x arm must fail, so some
	// samples are unsatisfied, and the best found stays below it.
	maxArm := r.Arms[len(r.Arms)-1]
	if r.Main.BestFreqGHz >= maxArm {
		t.Errorf("infeasible arm %v reported best", maxArm)
	}
	failures := 0
	for _, s := range r.Main.Samples {
		if !s.Satisfied {
			failures++
		}
	}
	if failures == 0 {
		t.Error("expected some unsatisfied samples across the ladder")
	}
	for _, alg := range []string{"thompson", "softmax", "eps-greedy", "ucb1"} {
		if _, ok := r.Comparison[alg]; !ok {
			t.Errorf("missing comparison entry %s", alg)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "thompson") {
		t.Error("print malformed")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	costs := map[string]float64{}
	for _, p := range r.Points {
		byName[p.Name] = p.AccuracyPct
		costs[p.Name] = p.CostUnits
	}
	if byName["fast+ml"] <= byName["fast"] {
		t.Errorf("ML point should lift accuracy: %v vs %v", byName["fast+ml"], byName["fast"])
	}
	if costs["fast+ml"] >= costs["signoff+si+pba"] {
		t.Error("ML point should be far cheaper than reference")
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(Small, 1)
	if len(r.Series) < 2 {
		t.Fatalf("only %d series found", len(r.Series))
	}
	hasSuccess, hasDoomed := false, false
	for _, l := range r.Labels {
		if strings.HasPrefix(l, "success") {
			hasSuccess = true
		}
		if strings.HasPrefix(l, "doomed") {
			hasDoomed = true
		}
	}
	if !hasSuccess || !hasDoomed {
		t.Errorf("need both success and doomed trajectories: %v", r.Labels)
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10(Small, 1)
	card := r.Card
	cfg := card.Config
	// Right half of the card leans STOP for flat-or-worsening DRVs.
	stops := 0
	for vb := cfg.ViolBins * 3 / 4; vb < cfg.ViolBins; vb++ {
		for d := 0; d <= cfg.DeltaSpan; d++ { // flat or positive delta
			if card.Action[vb][cfg.DeltaSpan+d] == 1 { // STOP
				stops++
			}
		}
	}
	if stops == 0 {
		t.Error("no STOP region on the right of the card")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.ContainsAny(buf.String(), "Ss") {
		t.Error("card render missing STOP cells")
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1(Small, 1)
	if len(r.Rows) != 3 {
		t.Fatal("want 3 rows")
	}
	// The paper's qualitative result: total error falls as the
	// consecutive-STOP requirement rises, and Type-2 errors stay flat
	// and small.
	if r.Rows[2].Test.TotalErrorPct > r.Rows[0].Test.TotalErrorPct+1e-9 {
		t.Errorf("k=3 test error %v should not exceed k=1 %v",
			r.Rows[2].Test.TotalErrorPct, r.Rows[0].Test.TotalErrorPct)
	}
	if r.Rows[2].Train.Type1 > r.Rows[0].Train.Type1 {
		t.Error("k=3 should cut Type-1 errors")
	}
	for _, row := range r.Rows {
		if row.Test.IterationsSaved < 0 || row.Test.IterationsSaved > row.Test.IterationsTotal {
			t.Error("iteration accounting broken")
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "type1") {
		t.Error("print malformed")
	}
}

// TestDoomedLiveShape: live supervision of the Fig. 9 test corpus must
// reclaim at least 20% of detail-route iterations while every run the
// card lets finish stays bit-identical to its uninterrupted twin.
func TestDoomedLiveShape(t *testing.T) {
	r := DoomedLive(Small, 1)
	t.Logf("reclaimed %.2f%% (%d of %d iterations), %d QoR mismatches",
		r.SavedPct, r.SavedIters, r.BaselineIters, r.QORMismatches)
	if r.QORMismatches != 0 {
		t.Errorf("QoR drift on %d finished runs", r.QORMismatches)
	}
	if r.SavedPct < 20 {
		t.Errorf("reclaimed %.2f%% below the 20%% bound", r.SavedPct)
	}
}

// TestSpecOverlapShape: the downstream sweep must commit speculative
// stages, and no committed result may drift from the non-speculative
// reference.
func TestSpecOverlapShape(t *testing.T) {
	r := SpecOverlap(Small, 1)
	t.Logf("%d stages committed, %d QoR mismatches", r.Committed, r.QORMismatches)
	if r.Committed < 1 {
		t.Error("speculation committed no stages")
	}
	if r.QORMismatches != 0 {
		t.Errorf("speculation drifted QoR on %d points", r.QORMismatches)
	}
}

// TestFig11Shape pins the small-scale loop exactly: every record of the
// ladder reaches the warehouse over HTTP, and the miner reads the
// numbers the in-memory XML store it replaced read. A placer change that
// moves the mined numbers re-pins them only if the mined best met target
// does not fall: the global placement step raised it from 2.876 GHz.
func TestFig11Shape(t *testing.T) {
	r, err := Fig11(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	want := `Figure 11: METRICS loop (JSON over HTTP, warehouse, miner)
flow runs instrumented:      10
records stored:              60
mined best met target:       3.045 GHz
prescribed achievable range: 2.805 - 3.174 GHz
suggested next target:       3.100 GHz
sensitivity(target->area):   0.755
`
	if got := buf.String(); got != want {
		t.Errorf("Fig11(Small, 1):\n%s\nwant:\n%s", got, want)
	}
}

func TestFacade(t *testing.T) {
	lib := DefaultLibrary()
	d := NewDesign(lib, TinyDesign(1))
	res := RunFlow(d, FlowOptions{TargetFreqGHz: 0.3, Seed: 1})
	if res.AreaUm2 <= 0 {
		t.Fatal("facade flow run failed")
	}
	r := Robot{Design: d, Base: FlowOptions{TargetFreqGHz: 0.3, Seed: 1}}
	if out := r.Execute(); !out.Succeeded {
		t.Error("facade robot failed easy target")
	}
}
