package repro

import "testing"

func TestMultiphysicsShape(t *testing.T) {
	r, err := Multiphysics(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalPowerNW <= 0 || r.WorstDroopMV < 0 {
		t.Fatalf("power/droop missing: %+v", r)
	}
	if r.DroopWNSPs > r.NominalWNSPs {
		t.Errorf("droop-aware WNS %v better than nominal %v", r.DroopWNSPs, r.NominalWNSPs)
	}
	if r.MLCorrectedPs >= r.RawPs {
		t.Errorf("ML correction did not help: %v vs %v", r.MLCorrectedPs, r.RawPs)
	}
}

func TestRopesShape(t *testing.T) {
	r, err := Ropes(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Evals) == 0 {
		t.Fatal("no rope evals")
	}
	for _, k := range []int{2, 5, 10} {
		if r.PrefixAccuracy[k] <= 0 {
			t.Errorf("prefix accuracy at k=%d missing", k)
		}
	}
	// Longer observation prefix should not be clearly worse.
	if r.PrefixAccuracy[10] < r.PrefixAccuracy[2]-0.05 {
		t.Errorf("prefix accuracy fell with more data: %v", r.PrefixAccuracy)
	}
}

func TestSharingShape(t *testing.T) {
	r := Sharing(Small, 1)
	if r.Leaks != 0 {
		t.Errorf("%d leaks", r.Leaks)
	}
	if r.AreaDriftPct > 25 {
		t.Errorf("area drift %v%% too large to stay useful", r.AreaDriftPct)
	}
	if r.FlowDeltaPct > 50 {
		t.Errorf("obfuscated flow result drifted %v%%", r.FlowDeltaPct)
	}
	if r.ProxySpanErr > 0.6 {
		t.Errorf("proxy span error %v", r.ProxySpanErr)
	}
}

func TestStageFourRLShape(t *testing.T) {
	r := StageFourRL(Small, 1)
	if len(r.Episodes) == 0 {
		t.Fatal("no episodes")
	}
	if r.LateReward < r.EarlyReward-0.2 {
		t.Errorf("reward regressed: %v -> %v", r.EarlyReward, r.LateReward)
	}
	if len(r.Policy) == 0 {
		t.Fatal("no policy")
	}
}

func TestFig7RobustnessShape(t *testing.T) {
	r := Fig7Robustness(1)
	if r.Settings < 6 {
		t.Fatalf("only %d settings", r.Settings)
	}
	for _, a := range []string{"thompson", "softmax", "eps-greedy", "ucb1"} {
		if r.MeanRel[a] <= 0 || r.MeanRel[a] > 1.0001 {
			t.Errorf("%s mean rel %v", a, r.MeanRel[a])
		}
		if r.WorstRel[a] <= 0 || r.WorstRel[a] > 1.0001 {
			t.Errorf("%s worst rel %v", a, r.WorstRel[a])
		}
		if r.WorstRel[a] > r.MeanRel[a]+1e-9 {
			t.Errorf("%s worst above mean", a)
		}
	}
	// The paper's robustness claim, weakened to what the synthetic grid
	// supports: TS stays within ~15%% of the per-setting best everywhere.
	if r.WorstRel["thompson"] < 0.8 {
		t.Errorf("thompson worst-case rel %v below 0.8", r.WorstRel["thompson"])
	}
}
