package core

import (
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/netlist"
)

func tiny(seed int64) *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
}

func TestRobotSucceedsOnEasyTarget(t *testing.T) {
	r := Robot{Design: tiny(1), Base: flow.Options{TargetFreqGHz: 0.25, Seed: 1}}
	out := r.Execute()
	if !out.Succeeded {
		t.Fatalf("robot failed an easy target after %d attempts", len(out.Attempts))
	}
	if out.Final == nil || out.RuntimeProxy <= 0 {
		t.Fatal("missing result accounting")
	}
}

func TestRobotBacksOffOnHardTarget(t *testing.T) {
	r := Robot{Design: tiny(2), Base: flow.Options{TargetFreqGHz: 40, Seed: 1}, MaxAttempts: 5}
	out := r.Execute()
	if len(out.Attempts) < 2 {
		t.Fatalf("robot gave up after %d attempts", len(out.Attempts))
	}
	// Targets must be non-increasing across attempts.
	prev := out.Attempts[0].Options.TargetFreqGHz
	for _, a := range out.Attempts[1:] {
		if a.Options.TargetFreqGHz > prev+1e-9 {
			t.Fatal("robot raised the target after a failure")
		}
		prev = a.Options.TargetFreqGHz
	}
	// Every non-final attempt carries a reason.
	for i, a := range out.Attempts {
		if i < len(out.Attempts)-1 && a.Reason == "" && !out.Succeeded {
			t.Errorf("attempt %d missing recovery reason", i)
		}
	}
}

func TestSearchFindsHighFeasibleFreq(t *testing.T) {
	design := tiny(4)
	res, err := Search(design, flow.Options{Seed: 1}, flow.Constraints{}, SearchConfig{
		Freqs:      []float64{0.15, 0.25, 0.35, 25, 40},
		Iterations: 8,
		Licenses:   3,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRuns != 24 {
		t.Fatalf("ran %d flows", res.TotalRuns)
	}
	if res.BestFreqGHz < 0.15 {
		t.Fatalf("no feasible frequency found")
	}
	if res.BestFreqGHz >= 25 {
		t.Fatalf("impossible frequency %v reported feasible", res.BestFreqGHz)
	}
	// Best-so-far is monotone.
	for i := 1; i < len(res.BestFreqSoFar); i++ {
		if res.BestFreqSoFar[i] < res.BestFreqSoFar[i-1] {
			t.Fatal("best-so-far regressed")
		}
	}
	if res.PeakLicenses > 3 {
		t.Fatalf("license pool violated: peak %d", res.PeakLicenses)
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(tiny(5), flow.Options{}, flow.Constraints{}, SearchConfig{}); err == nil {
		t.Error("no arms should error")
	}
	if _, err := Search(tiny(5), flow.Options{}, flow.Constraints{}, SearchConfig{
		Freqs: []float64{0.3}, Algorithm: "nope",
	}); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestNewAlgorithmNames(t *testing.T) {
	for _, name := range []string{"", "thompson", "softmax", "eps-greedy", "ucb1"} {
		alg, err := NewAlgorithm(name, 3)
		if err != nil || alg == nil {
			t.Errorf("algorithm %q: %v", name, err)
		}
	}
}

func TestMarginModel(t *testing.T) {
	today := MarginModel{Sigma: 0.06, Bias: 0.01}
	future := MarginModel{Sigma: 0.015, Bias: 0.005}
	// Success probability rises with margin.
	if today.SuccessProb(0.02) >= today.SuccessProb(0.2) {
		t.Error("more margin must mean more success")
	}
	// Expected iterations fall with margin.
	if today.ExpectedIterations(0.02) <= today.ExpectedIterations(0.2) {
		t.Error("more margin must mean fewer iterations")
	}
	// The Fig. 4 punchline: a predictable (low-noise) future tool
	// needs a smaller margin for the same schedule, so achieved
	// quality improves.
	budget := 2.0 // at most 2 expected passes
	mToday := today.OptimalMargin(budget)
	mFuture := future.OptimalMargin(budget)
	if mFuture >= mToday {
		t.Errorf("future margin %v should be below today's %v", mFuture, mToday)
	}
	if future.AchievedQuality(mFuture) <= today.AchievedQuality(mToday) {
		t.Error("predictability should buy quality")
	}
}

func TestTrajectoryTree(t *testing.T) {
	steps := DefaultFlowTree()
	single := Trajectories(steps)
	if single < 1e6 {
		t.Errorf("tree size %v implausibly small", single)
	}
	iter := TrajectoriesWithIteration(steps, 3)
	if iter <= single {
		t.Error("iteration must multiply trajectories")
	}
	f := ExploredFraction(steps, 200)
	if f <= 0 || f > 1e-3 {
		t.Errorf("200 runs explore fraction %v; should be tiny", f)
	}
	if ExploredFraction(steps, 1e300) != 1 {
		t.Error("fraction must clamp at 1")
	}
}
