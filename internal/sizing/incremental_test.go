package sizing

import (
	"math/rand"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// looseDesign builds a preset netlist with every cell bumped up a notch
// or two and a generous clock, so area recovery has real work to do.
func looseDesign(tb testing.TB, lib *cellib.Library, spec netlist.Spec, engine sta.Config, seed int64) *netlist.Netlist {
	tb.Helper()
	n := netlist.Generate(lib, spec)
	rng := rand.New(rand.NewSource(seed))
	for i := range n.Insts {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			if up, ok := n.Lib.Upsize(n.Insts[i].Cell); ok {
				n.Insts[i].Cell = up
			}
		}
	}
	rep := sta.Analyze(n, engine)
	if rep.MaxFreqGHz > 0 {
		n.ClockPeriodPs = (1000 / rep.MaxFreqGHz) * 1.3
	}
	return n
}

func sameCells(t *testing.T, a, b *netlist.Netlist) {
	t.Helper()
	for i := range a.Insts {
		if a.Insts[i].Cell.Name != b.Insts[i].Cell.Name {
			t.Fatalf("inst %d diverged: incremental=%s full=%s", i, a.Insts[i].Cell.Name, b.Insts[i].Cell.Name)
		}
	}
}

// TestRecoverFullEquivalence: with the exact (epsilon-0) engine,
// incremental Recover must take the identical sequence of keep/revert
// decisions as the ForceFullSTA baseline — same final cells, area, WNS
// and candidate count — while doing far less propagation work.
func TestRecoverFullEquivalence(t *testing.T) {
	engine := sta.Config{Engine: sta.Signoff, SI: true}
	base := looseDesign(t, cellib.Default14nm(), netlist.Artificial(51), engine, 51)
	nInc, nFull := base.Clone(), base.Clone()

	cfg := Config{Seed: 1, MaxPasses: 2, Engine: &engine}
	rInc := Recover(nInc, cfg)
	cfg.ForceFullSTA = true
	rFull := Recover(nFull, cfg)

	if rInc.AreaAfter != rFull.AreaAfter || rInc.WNSAfter != rFull.WNSAfter ||
		rInc.Downsized != rFull.Downsized || rInc.TimerRuns != rFull.TimerRuns {
		t.Fatalf("incremental and full Recover diverged:\n inc  %+v\n full %+v", rInc, rFull)
	}
	sameCells(t, nInc, nFull)
	if rInc.Downsized == 0 {
		t.Fatal("recovery performed no downsizing; test design not loose enough")
	}
	if rInc.TimerWorkEquiv >= rFull.TimerWorkEquiv {
		t.Fatalf("incremental work %v not below full work %v", rInc.TimerWorkEquiv, rFull.TimerWorkEquiv)
	}
}

// TestFixFullEquivalence: same property for the upsizing direction.
func TestFixFullEquivalence(t *testing.T) {
	engine := sta.Config{Engine: sta.Signoff}
	n := netlist.Generate(cellib.Default14nm(), netlist.Artificial(52))
	rep := sta.Analyze(n, engine)
	if rep.MaxFreqGHz > 0 {
		n.ClockPeriodPs = (1000 / rep.MaxFreqGHz) * 0.92 // force violations
	}
	nInc, nFull := n.Clone(), n.Clone()

	cfg := Config{Seed: 2, MaxPasses: 4, Engine: &engine}
	rInc := Fix(nInc, cfg)
	cfg.ForceFullSTA = true
	rFull := Fix(nFull, cfg)

	if rInc.AreaAfter != rFull.AreaAfter || rInc.WNSAfter != rFull.WNSAfter ||
		rInc.Upsized != rFull.Upsized || rInc.TimerRuns != rFull.TimerRuns {
		t.Fatalf("incremental and full Fix diverged:\n inc  %+v\n full %+v", rInc, rFull)
	}
	sameCells(t, nInc, nFull)
	if rInc.Upsized == 0 {
		t.Fatal("fix performed no upsizing; test design not tight enough")
	}
}

// TestRecoverIncrementalWorkMetric pins the headline saving: the
// propagation work of incremental Recover, measured in full-Analyze
// equivalents, must stay well below the timer-query count that the
// full baseline would have paid.
func TestRecoverIncrementalWorkMetric(t *testing.T) {
	engine := sta.Config{Engine: sta.Signoff, SI: true}
	n := looseDesign(t, cellib.Default14nm(), netlist.Artificial(54), engine, 54)
	res := Recover(n, Config{Seed: 4, MaxPasses: 2, Engine: &engine})
	if res.TimerRuns < 100 {
		t.Fatalf("expected a substantial candidate count, got TimerRuns=%d", res.TimerRuns)
	}
	if limit := float64(res.TimerRuns) / 3; res.TimerWorkEquiv >= limit {
		t.Fatalf("incremental work regressed: %.2f full-equivalents for %d timer runs (limit %.2f)",
			res.TimerWorkEquiv, res.TimerRuns, limit)
	}
}
