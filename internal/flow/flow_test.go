package flow

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/route"
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

// stopAtSupervisor is a RouteSupervisor that STOPs every run at a fixed
// iteration.
type stopAtSupervisor struct {
	at   int
	seen []string
}

func (s *stopAtSupervisor) OnStep(rec StepRecord) { s.seen = append(s.seen, rec.Step) }
func (s *stopAtSupervisor) RouteIter(design string, runSeed int64, iter int, drvs []int) route.IterAction {
	if iter >= s.at {
		return route.Stop
	}
	return route.Continue
}

func TestRunCtxLiveStopEndsFlow(t *testing.T) {
	d := tiny(12)
	opts := Options{TargetFreqGHz: 0.4, Seed: 9}
	full := Run(d, opts)
	sup := &stopAtSupervisor{at: 4}
	res, err := RunCfg(context.Background(), d, opts, RunConfig{Observer: sup})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Aborted {
		t.Fatalf("stopped=%t aborted=%t, want clean live STOP", res.Stopped, res.Aborted)
	}
	if res.Route.StopIter != 4 || res.Route.IterationsRun != 4 {
		t.Fatalf("route stopped at %d after %d iterations", res.Route.StopIter, res.Route.IterationsRun)
	}
	if res.Sign != nil || res.Met {
		t.Fatal("STOPped run must not sign off or be Met")
	}
	if res.AreaUm2 <= 0 {
		t.Fatal("STOPped run should still report implemented area")
	}
	// The iterations that ran are the full run's prefix.
	for i := range res.Route.DRVs {
		if res.Route.DRVs[i] != full.Route.DRVs[i] {
			t.Fatalf("supervised prefix diverged at %d", i)
		}
	}
	// Observer saw everything through droute and nothing after.
	want := []string{"synth", "place", "cts", "groute", "droute"}
	if len(sup.seen) != len(want) {
		t.Fatalf("observed %v, want %v", sup.seen, want)
	}
	if res.RuntimeProxy >= full.RuntimeProxy {
		t.Error("live STOP should save runtime")
	}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	inj := &FaultInjector{Seed: 3, CrashRate: 0.25, LicenseDropRate: 0.25}
	for runSeed := int64(0); runSeed < 50; runSeed++ {
		for attempt := 0; attempt < 3; attempt++ {
			a := inj.Check(runSeed, "droute", attempt)
			b := inj.Check(runSeed, "droute", attempt)
			if (a == nil) != (b == nil) {
				t.Fatal("fault coin not deterministic")
			}
			if a != nil && a.Error() != b.Error() {
				t.Fatal("fault kind not deterministic")
			}
		}
	}
	var faults int
	for runSeed := int64(0); runSeed < 200; runSeed++ {
		if inj.Check(runSeed, "sta", 0) != nil {
			faults++
		}
	}
	if faults < 50 || faults > 150 {
		t.Fatalf("50%% fault rate hit %d/200 runs", faults)
	}
	var nilInj *FaultInjector
	if nilInj.Check(1, "synth", 0) != nil {
		t.Fatal("nil injector faulted")
	}
}

func TestRunFaultAbortsAtStageBoundary(t *testing.T) {
	d := tiny(13)
	// CrashRate 1: the very first boundary kills every attempt.
	inj := &FaultInjector{Seed: 1, CrashRate: 1}
	res, err := RunCfg(context.Background(), d, Options{TargetFreqGHz: 0.4, Seed: 2}, RunConfig{Faults: inj})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FaultError", err)
	}
	if fe.Stage != "synth" || fe.Kind != FaultCrash {
		t.Fatalf("fault %+v, want synth crash", fe)
	}
	if !res.Aborted || res.FailedStage != "synth" {
		t.Fatalf("aborted=%t stage=%q", res.Aborted, res.FailedStage)
	}
}
