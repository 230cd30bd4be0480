package noise

import (
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

func tiny(seed int64) *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
}

func TestSweepBasics(t *testing.T) {
	st := Sweep(tiny(1), Config{Seeds: 10, Steps: 5, Seed: 1})
	if len(st.Points) != 5 {
		t.Fatalf("%d points", len(st.Points))
	}
	if st.FMax <= 0 {
		t.Fatal("no fmax")
	}
	for i, p := range st.Points {
		if len(p.AreaSamples) != 10 {
			t.Fatalf("point %d: %d samples", i, len(p.AreaSamples))
		}
		if p.MeanArea <= 0 {
			t.Fatalf("point %d: mean area %v", i, p.MeanArea)
		}
		if p.MetFrac < 0 || p.MetFrac > 1 {
			t.Fatalf("point %d: met frac %v", i, p.MetFrac)
		}
	}
	// Targets ascend.
	for i := 1; i < len(st.Points); i++ {
		if st.Points[i].TargetFreqGHz <= st.Points[i-1].TargetFreqGHz {
			t.Fatal("targets not ascending")
		}
	}
}

func TestNoiseGrowsTowardFMax(t *testing.T) {
	st := Sweep(tiny(2), Config{Seeds: 12, Steps: 6, Seed: 2})
	if !st.NoiseGrowsTowardFMax() {
		lo, hi := st.Points[0], st.Points[len(st.Points)-1]
		t.Errorf("noise did not grow: std %v at %v GHz vs %v at %v GHz",
			lo.StdArea, lo.TargetFreqGHz, hi.StdArea, hi.TargetFreqGHz)
	}
}

func TestMetFracFallsTowardFMax(t *testing.T) {
	st := Sweep(tiny(3), Config{Seeds: 10, Steps: 6, Seed: 3})
	first, last := st.Points[0], st.Points[len(st.Points)-1]
	if last.MetFrac > first.MetFrac {
		t.Errorf("met fraction should fall near fmax: %v -> %v", first.MetFrac, last.MetFrac)
	}
	if first.MetFrac < 0.9 {
		t.Errorf("half-fmax target met only %v of runs", first.MetFrac)
	}
}

func TestAreaJumpNearFmax(t *testing.T) {
	st := Sweep(tiny(4), Config{Seeds: 8, Steps: 8, Seed: 4})
	if st.AreaJumpPct() <= 0 {
		t.Error("no area jump measured across targets")
	}
}

func TestExplicitTargets(t *testing.T) {
	st := Sweep(tiny(5), Config{Seeds: 5, Targets: []float64{0.3, 0.6}, Seed: 5})
	if len(st.Points) != 2 {
		t.Fatalf("%d points", len(st.Points))
	}
	if st.Points[0].TargetFreqGHz != 0.3 || st.Points[1].TargetFreqGHz != 0.6 {
		t.Fatal("explicit targets not used")
	}
}

func TestGaussianAt(t *testing.T) {
	st := Sweep(tiny(6), Config{Seeds: 16, Steps: 4, Seed: 6})
	g, h := st.GaussianAt(len(st.Points)-1, 6)
	if g.Mu <= 0 {
		t.Error("gaussian fit mean must be positive")
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 16 {
		t.Errorf("histogram holds %d samples", total)
	}
}
