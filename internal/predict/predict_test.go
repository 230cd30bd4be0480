package predict

import (
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/logfile"
	"repro/internal/netlist"
)

func testCampaign(t testing.TB) []Sample {
	t.Helper()
	lib := cellib.Default14nm()
	var designs []*netlist.Netlist
	for i := int64(0); i < 3; i++ {
		designs = append(designs, netlist.Generate(lib, netlist.Tiny(i)))
	}
	variants := []flow.Options{
		{TargetFreqGHz: 0.3, Seed: 1},
		{TargetFreqGHz: 0.8, Seed: 2},
		{TargetFreqGHz: 2.0, Seed: 3},
	}
	return CampaignWith(designs, variants, 3, CampaignConfig{})
}

func TestCampaignSize(t *testing.T) {
	samples := testCampaign(t)
	if len(samples) != 3*3*3 {
		t.Fatalf("%d samples", len(samples))
	}
	for _, s := range samples {
		if s.Result == nil || s.Stats.Cells == 0 {
			t.Fatal("incomplete sample")
		}
	}
}

func TestEvaluateRopes(t *testing.T) {
	samples := testCampaign(t)
	evals, err := Evaluate(StandardRopes(), samples, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != len(StandardRopes()) {
		t.Fatalf("%d evals", len(evals))
	}
	for _, e := range evals {
		if e.N != len(samples) {
			t.Errorf("%s: N=%d", e.Rope, e.N)
		}
		if e.TestMAE < 0 || e.TrainMAE < 0 {
			t.Errorf("%s: negative MAE", e.Rope)
		}
	}
	// The shortest ropes should be decently predictable on this
	// homogeneous campaign.
	for _, e := range evals {
		if e.Rope == "netlist->synth-area" && e.TestR2 < 0.5 {
			t.Errorf("short rope R2 = %v; expected strong fit", e.TestR2)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(StandardRopes(), nil, 0.25, 1); err == nil {
		t.Error("empty campaign should error")
	}
}

func corpusSeries(t testing.TB, seed int64) [][]int {
	t.Helper()
	runs := logfile.Generate(logfile.CorpusSpec{Name: "artificial", Runs: 120, Seed: seed, Designs: 2})
	var out [][]int
	for _, r := range runs {
		out = append(out, r.DRVs)
	}
	return out
}

func TestPrefixModelImprovesWithK(t *testing.T) {
	train := corpusSeries(t, 1)
	test := corpusSeries(t, 2)
	accs := map[int]float64{}
	for _, k := range []int{2, 6, 12} {
		m, err := FitPrefix(train, k)
		if err != nil {
			t.Fatal(err)
		}
		acc, n := m.EvaluatePrefix(test)
		if n == 0 {
			t.Fatal("no test series")
		}
		accs[k] = acc
	}
	if accs[12] < accs[2]-0.02 {
		t.Errorf("longer prefix should not be clearly worse: k=2 %.3f vs k=12 %.3f", accs[2], accs[12])
	}
	if accs[12] < 0.7 {
		t.Errorf("12-iteration prefix accuracy %.3f too low", accs[12])
	}
}

func TestPrefixModelErrors(t *testing.T) {
	if _, err := FitPrefix(nil, 3); err == nil {
		t.Error("empty training should error")
	}
	if _, err := FitPrefix([][]int{{1}, {2}}, 3); err == nil {
		t.Error("too-short series should error")
	}
}

func TestPrefixFeaturesBounded(t *testing.T) {
	f := prefixFeatures([]int{1000, 500, 250}, 10) // k beyond series
	if len(f) != 5 {
		t.Fatalf("feature size %d", len(f))
	}
	if f[4] != 2 { // clamped k
		t.Errorf("clamped k = %v", f[4])
	}
}
