package flow

import (
	"context"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

func tiny(seed int64) *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
}

func TestRunEndToEnd(t *testing.T) {
	d := tiny(1)
	r := Run(d, Options{TargetFreqGHz: 0.35, Seed: 1})
	if r.Netlist == nil || r.Global == nil || r.Route == nil || r.Sign == nil {
		t.Fatal("missing step results")
	}
	if err := r.Netlist.Validate(); err != nil {
		t.Fatalf("implemented netlist invalid: %v", err)
	}
	if r.AreaUm2 <= r.Netlist.Area()-1e9 || r.AreaUm2 < r.Netlist.Area() {
		t.Errorf("area %v should include clock buffers above cell area %v", r.AreaUm2, r.Netlist.Area())
	}
	if r.RuntimeProxy <= 0 {
		t.Error("runtime proxy not accumulated")
	}
	if r.Met != (r.TimingMet && r.RouteOK) {
		t.Error("Met flag inconsistent")
	}
}

func TestInputPreserved(t *testing.T) {
	d := tiny(2)
	cells := len(d.Insts)
	area := d.Area()
	Run(d, Options{TargetFreqGHz: 0.6, Seed: 1})
	if len(d.Insts) != cells || d.Area() != area {
		t.Fatal("flow modified the input design")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	d := tiny(3)
	a := Run(d, Options{TargetFreqGHz: 0.4, Seed: 11})
	b := Run(d, Options{TargetFreqGHz: 0.4, Seed: 11})
	if a.AreaUm2 != b.AreaUm2 || a.WNSPs != b.WNSPs || a.Route.Final != b.Route.Final {
		t.Fatal("same seed gave different flow results")
	}
	c := Run(d, Options{TargetFreqGHz: 0.4, Seed: 12})
	if a.AreaUm2 == c.AreaUm2 && a.WNSPs == c.WNSPs && a.Place.HPWLUm == c.Place.HPWLUm {
		t.Error("different seeds gave identical results everywhere")
	}
}

func TestObserverSeesAllSteps(t *testing.T) {
	d := tiny(4)
	var steps []string
	var sawSeries bool
	obs := ObserverFunc(func(rec StepRecord) {
		steps = append(steps, rec.Step)
		if rec.Step == "droute" && len(rec.Series) > 1 {
			sawSeries = true
		}
		if rec.Design != d.Name {
			t.Errorf("record design %q", rec.Design)
		}
	})
	RunObserved(d, Options{TargetFreqGHz: 0.4, Seed: 1}, obs)
	want := []string{"synth", "place", "cts", "groute", "droute", "sta"}
	if len(steps) != len(want) {
		t.Fatalf("observed steps %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("step %d = %q, want %q", i, steps[i], want[i])
		}
	}
	if !sawSeries {
		t.Error("droute record missing DRV series")
	}
}

func TestConstraints(t *testing.T) {
	d := tiny(7)
	r := Run(d, Options{TargetFreqGHz: 0.3, Seed: 1})
	if !r.Met {
		t.Skip("baseline run did not meet; constraint test needs a met run")
	}
	if !(Constraints{}).Satisfied(r) {
		t.Error("unconstrained box should accept a met run")
	}
	if (Constraints{MaxAreaUm2: r.AreaUm2 / 2}).Satisfied(r) {
		t.Error("area box half the actual area should reject")
	}
	if (Constraints{MaxPowerNW: r.PowerNW / 2}).Satisfied(r) {
		t.Error("power box half the actual power should reject")
	}
	if !(Constraints{MaxAreaUm2: r.AreaUm2 * 2, MaxPowerNW: r.PowerNW * 2}).Satisfied(r) {
		t.Error("roomy box should accept")
	}
}

func TestHigherTargetHarder(t *testing.T) {
	d := tiny(8)
	ease, hard := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		if Run(d, Options{TargetFreqGHz: 0.25, Seed: seed}).TimingMet {
			ease++
		}
		if Run(d, Options{TargetFreqGHz: 6.0, Seed: seed}).TimingMet {
			hard++
		}
	}
	if ease < 4 {
		t.Errorf("easy target met only %d/5", ease)
	}
	if hard > 1 {
		t.Errorf("impossible target met %d/5", hard)
	}
}

func TestSubSeedDecorrelates(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 10; seed++ {
		for step := uint64(1); step <= 5; step++ {
			s := subSeed(seed, step)
			if seen[s] {
				t.Fatalf("collision in subSeed(%d,%d)", seed, step)
			}
			seen[s] = true
		}
	}
}

func BenchmarkFlowTiny(b *testing.B) {
	d := tiny(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(d, Options{TargetFreqGHz: 0.4, Seed: int64(i)})
	}
}

func TestRunCtxPreCancelled(t *testing.T) {
	d := tiny(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCfg(ctx, d, Options{TargetFreqGHz: 0.4, Seed: 1}, RunConfig{})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if !res.Aborted || res.FailedStage != "synth" {
		t.Fatalf("aborted=%t stage=%q, want abort before synth", res.Aborted, res.FailedStage)
	}
	if res.Netlist != nil || res.Route != nil || res.Sign != nil {
		t.Fatal("pre-cancelled run produced stage results")
	}
}

func TestRunCtxMatchesRun(t *testing.T) {
	d := tiny(11)
	opts := Options{TargetFreqGHz: 0.4, Seed: 5}
	plain := Run(d, opts)
	ctxRes, err := RunCfg(context.Background(), d, opts, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.AreaUm2 != ctxRes.AreaUm2 || plain.WNSPs != ctxRes.WNSPs ||
		plain.Route.Final != ctxRes.Route.Final || plain.RuntimeProxy != ctxRes.RuntimeProxy {
		t.Fatal("RunCfg diverged from Run on an uncancelled background context")
	}
}
