package route

import (
	"context"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/place"
)

func placed(seed int64, spec netlist.Spec) *netlist.Netlist {
	n := netlist.Generate(cellib.Default14nm(), spec)
	place.Place(n, place.Options{Seed: seed, Moves: 30 * n.NumCells()})
	return n
}

func TestGlobalRouteBasics(t *testing.T) {
	n := placed(1, netlist.Tiny(1))
	g := GlobalRoute(n, GlobalOptions{Seed: 1})
	if g.WirelengthUm < 0 {
		t.Fatalf("negative wirelength %v", g.WirelengthUm)
	}
	if g.OverflowTotal < 0 || g.OverflowPeak < 0 || g.HotspotFrac < 0 || g.HotspotFrac > 1 {
		t.Fatalf("bad congestion summary: %+v", g)
	}
	if len(g.Demand) != (g.GridDim-1)*g.GridDim*2 {
		t.Fatalf("demand sized %d for dim %d", len(g.Demand), g.GridDim)
	}
	var total float64
	for _, d := range g.Demand {
		if d < 0 {
			t.Fatal("negative edge demand")
		}
		total += d
	}
	if total == 0 {
		t.Fatal("no demand routed")
	}
}

func TestScarceTracksCauseOverflow(t *testing.T) {
	n := placed(2, netlist.Tiny(2))
	rich := GlobalRoute(n, GlobalOptions{Seed: 1, TracksPerEdge: 200})
	poor := GlobalRoute(n, GlobalOptions{Seed: 1, TracksPerEdge: 1.5})
	if rich.OverflowTotal > 0 {
		t.Errorf("200 tracks/edge should not overflow a tiny design: %v", rich.OverflowTotal)
	}
	if poor.OverflowTotal <= rich.OverflowTotal {
		t.Errorf("scarce tracks should overflow: %v vs %v", poor.OverflowTotal, rich.OverflowTotal)
	}
	if poor.CongestionMargin() >= rich.CongestionMargin() {
		t.Errorf("margin should fall with congestion: %v vs %v", poor.CongestionMargin(), rich.CongestionMargin())
	}
}

func TestDetailRouteSuccessOnComfortableDesign(t *testing.T) {
	n := placed(3, netlist.Tiny(3))
	g := GlobalRoute(n, GlobalOptions{Seed: 1, TracksPerEdge: 120})
	succ := 0
	for seed := int64(0); seed < 10; seed++ {
		r := DetailRoute(g, DetailOptions{Seed: seed})
		if r.Success {
			succ++
		}
		if len(r.DRVs) != r.IterationsRun+1 {
			t.Fatalf("series length %d vs iterations %d", len(r.DRVs), r.IterationsRun)
		}
	}
	if succ < 8 {
		t.Errorf("comfortable design succeeded only %d/10 runs", succ)
	}
}

func TestDetailRouteDoomedOnCongestedDesign(t *testing.T) {
	n := placed(4, netlist.Tiny(4))
	g := GlobalRoute(n, GlobalOptions{Seed: 1, TracksPerEdge: 1.2})
	doomed := 0
	for seed := int64(0); seed < 10; seed++ {
		r := DetailRoute(g, DetailOptions{Seed: seed})
		if !r.Success {
			doomed++
		}
	}
	if doomed < 8 {
		t.Errorf("congested design was doomed only %d/10 runs", doomed)
	}
}

func TestDetailRouteSeriesShape(t *testing.T) {
	// Success runs decay by orders of magnitude (Fig. 9 green curve):
	// the last DRV count should be far below the first.
	n := placed(5, netlist.Tiny(5))
	g := GlobalRoute(n, GlobalOptions{Seed: 1, TracksPerEdge: 120})
	r := DetailRoute(g, DetailOptions{Seed: 1})
	if !r.Success {
		t.Skip("run not successful")
	}
	if r.DRVs[0] < 100 {
		t.Fatalf("initial DRVs %d implausibly low", r.DRVs[0])
	}
	if float64(r.Final) > 0.1*float64(r.DRVs[0]) {
		t.Errorf("successful run should decay >10x: %d -> %d", r.DRVs[0], r.Final)
	}
}

func TestEffortSpeedsConvergence(t *testing.T) {
	n := placed(7, netlist.Tiny(7))
	g := GlobalRoute(n, GlobalOptions{Seed: 1, TracksPerEdge: 60})
	lo := DetailRoute(g, DetailOptions{Seed: 3, Effort: 1, Iterations: 8})
	hi := DetailRoute(g, DetailOptions{Seed: 3, Effort: 3, Iterations: 8})
	if hi.Final > lo.Final {
		t.Errorf("higher effort should converge at least as fast: %d vs %d", hi.Final, lo.Final)
	}
}

func TestDetailRouteDeterministic(t *testing.T) {
	n := placed(8, netlist.Tiny(8))
	g := GlobalRoute(n, GlobalOptions{Seed: 1})
	a := DetailRoute(g, DetailOptions{Seed: 42})
	b := DetailRoute(g, DetailOptions{Seed: 42})
	for i := range a.DRVs {
		if a.DRVs[i] != b.DRVs[i] {
			t.Fatal("same seed gave different DRV series")
		}
	}
}

func TestGlobalRouteAvoidsCongestion(t *testing.T) {
	// With congestion-aware cost the router should spread demand:
	// peak demand must be below what single-minded H-first routing
	// would pile onto one edge. Just check peak/mean is bounded.
	n := placed(9, netlist.PulpinoProxy(9))
	g := GlobalRoute(n, GlobalOptions{Seed: 1})
	var sum, peak float64
	for _, d := range g.Demand {
		sum += d
		if d > peak {
			peak = d
		}
	}
	mean := sum / float64(len(g.Demand))
	if peak > 40*mean {
		t.Errorf("demand extremely unbalanced: peak %v vs mean %v", peak, mean)
	}
}

func BenchmarkGlobalRoute(b *testing.B) {
	n := placed(1, netlist.PulpinoProxy(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GlobalRoute(n, GlobalOptions{Seed: int64(i)})
	}
}

func TestDetailRouteCtxAbortsMidRun(t *testing.T) {
	n := placed(10, netlist.Tiny(10))
	g := GlobalRoute(n, GlobalOptions{Seed: 1})
	full := DetailRoute(g, DetailOptions{Seed: 11})

	// Cancel from inside the run: the hook fires after iteration 4, the
	// ctx check aborts before iteration 6 begins (the hook's own run
	// still completes iteration 5's decision point first).
	ctx, cancel := context.WithCancel(context.Background())
	r := DetailRouteCtx(ctx, g, DetailOptions{
		Seed: 11,
		IterHook: func(iter int, drvs []int) IterAction {
			if iter == 4 {
				cancel()
			}
			return Continue
		},
	})
	if !r.Aborted {
		t.Fatal("cancelled run not marked Aborted")
	}
	if r.StopIter != 0 {
		t.Fatalf("abort recorded as live STOP at %d", r.StopIter)
	}
	if r.IterationsRun != 4 {
		t.Fatalf("ran %d iterations after cancel at 4", r.IterationsRun)
	}
	// Well-formed partial: series length, Final, Success all consistent
	// with the iterations that ran, and a bit-identical prefix.
	if len(r.DRVs) != r.IterationsRun+1 {
		t.Fatalf("series length %d vs iterations %d", len(r.DRVs), r.IterationsRun)
	}
	if r.Final != r.DRVs[len(r.DRVs)-1] {
		t.Fatalf("Final %d != last DRV %d", r.Final, r.DRVs[len(r.DRVs)-1])
	}
	if (r.Final < SuccessDRVThreshold) != r.Success {
		t.Fatal("Success inconsistent with Final")
	}
	for i := range r.DRVs {
		if r.DRVs[i] != full.DRVs[i] {
			t.Fatalf("aborted prefix diverged at %d: %d vs %d", i, r.DRVs[i], full.DRVs[i])
		}
	}
	if r.RuntimeProxy >= full.RuntimeProxy {
		t.Error("abort should save runtime")
	}
}

func TestDetailRouteCtxLiveStop(t *testing.T) {
	n := placed(11, netlist.Tiny(11))
	g := GlobalRoute(n, GlobalOptions{Seed: 1})
	full := DetailRoute(g, DetailOptions{Seed: 13})

	r := DetailRouteCtx(context.Background(), g, DetailOptions{
		Seed: 13,
		IterHook: func(iter int, drvs []int) IterAction {
			if iter >= 6 {
				return Stop
			}
			return Continue
		},
	})
	if r.Aborted {
		t.Fatal("live STOP misreported as abort")
	}
	if r.StopIter != 6 || r.IterationsRun != 6 {
		t.Fatalf("StopIter %d, IterationsRun %d, want 6/6", r.StopIter, r.IterationsRun)
	}
	if r.IterationsBudget != full.IterationsBudget {
		t.Fatalf("budget %d vs %d", r.IterationsBudget, full.IterationsBudget)
	}
	for i := range r.DRVs {
		if r.DRVs[i] != full.DRVs[i] {
			t.Fatalf("stopped prefix diverged at %d", i)
		}
	}
}

func TestDetailRouteCtxContinueHookIsBitIdentical(t *testing.T) {
	// A supervisor that always says CONTINUE must not perturb the run.
	n := placed(12, netlist.Tiny(12))
	g := GlobalRoute(n, GlobalOptions{Seed: 1, TracksPerEdge: 2})
	plain := DetailRoute(g, DetailOptions{Seed: 17})
	hooked := DetailRouteCtx(context.Background(), g, DetailOptions{
		Seed:     17,
		IterHook: func(iter int, drvs []int) IterAction { return Continue },
	})
	if len(plain.DRVs) != len(hooked.DRVs) {
		t.Fatalf("series lengths differ: %d vs %d", len(plain.DRVs), len(hooked.DRVs))
	}
	for i := range plain.DRVs {
		if plain.DRVs[i] != hooked.DRVs[i] {
			t.Fatalf("CONTINUE hook changed DRVs at %d", i)
		}
	}
	if plain.Final != hooked.Final || plain.Success != hooked.Success {
		t.Fatal("CONTINUE hook changed outcome")
	}
}
