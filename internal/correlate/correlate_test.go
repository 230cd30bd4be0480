package correlate

import (
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
	"repro/internal/sta"
)

func designs(n int, base int64) []*netlist.Netlist {
	lib := cellib.Default14nm()
	var out []*netlist.Netlist
	for i := 0; i < n; i++ {
		out = append(out, netlist.Generate(lib, netlist.Tiny(base+int64(i))))
	}
	return out
}

var fastCfg = sta.Config{Engine: sta.Fast}
var truthCfg = sta.Config{Engine: sta.Signoff, SI: true, PathBased: true}

func TestMeasureDivergence(t *testing.T) {
	n := designs(1, 1)[0]
	d, err := compare(sta.Analyze(n, fastCfg), sta.Analyze(n, truthCfg))
	if err != nil {
		t.Fatal(err)
	}
	if d.Endpoints == 0 {
		t.Fatal("no endpoints")
	}
	if d.MAEPs <= 0 {
		t.Error("engines should diverge (MAE > 0)")
	}
	if d.RMSEPs < d.MAEPs {
		t.Error("RMSE must be >= MAE")
	}
	if d.MaxAbsPs < d.MAEPs {
		t.Error("max must be >= mean")
	}
	if len(d.DeltasPs) != d.Endpoints {
		t.Error("deltas length mismatch")
	}
}

func TestMeasureSelfZero(t *testing.T) {
	n := designs(1, 2)[0]
	d, err := compare(sta.Analyze(n, truthCfg), sta.Analyze(n, truthCfg))
	if err != nil {
		t.Fatal(err)
	}
	if d.MAEPs != 0 || d.Disagreements != 0 {
		t.Errorf("self-comparison should be exact: %+v", d)
	}
}

func TestModelReducesError(t *testing.T) {
	train := designs(4, 10)
	test := designs(1, 99)[0]
	m, err := Train(train, fastCfg, truthCfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CorrectedMAEPs >= ev.RawMAEPs {
		t.Errorf("ML correction did not reduce MAE: raw %v vs corrected %v", ev.RawMAEPs, ev.CorrectedMAEPs)
	}
	if ev.CorrDisagree > ev.RawDisagree {
		t.Errorf("correction increased sign disagreements: %d -> %d", ev.RawDisagree, ev.CorrDisagree)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, fastCfg, truthCfg); err == nil {
		t.Error("empty training set should error")
	}
}

func TestAccuracyCostCurveShape(t *testing.T) {
	train := designs(3, 20)
	test := designs(1, 77)[0]
	points, err := AccuracyCostCurve(train, test)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CurvePoint{}
	for _, p := range points {
		byName[p.Name] = p
	}
	for _, name := range []string{"fast", "signoff", "signoff+si", "signoff+si+pba", "fast+ml"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing curve point %q", name)
		}
	}
	// Reference engine is exact by construction.
	if byName["signoff+si+pba"].AccuracyPct != 100 {
		t.Errorf("reference accuracy %v", byName["signoff+si+pba"].AccuracyPct)
	}
	// Accuracy should be monotone along the engine staircase.
	if byName["fast"].AccuracyPct > byName["signoff+si"].AccuracyPct {
		t.Errorf("fast (%v%%) should not beat signoff+si (%v%%)",
			byName["fast"].AccuracyPct, byName["signoff+si"].AccuracyPct)
	}
	// Cost staircase.
	if !(byName["fast"].CostUnits < byName["signoff"].CostUnits &&
		byName["signoff"].CostUnits < byName["signoff+si"].CostUnits &&
		byName["signoff+si"].CostUnits < byName["signoff+si+pba"].CostUnits) {
		t.Error("cost staircase violated")
	}
	// The Fig. 8 punchline: ML-corrected fast is much cheaper than the
	// reference and more accurate than raw fast.
	ml := byName["fast+ml"]
	if ml.CostUnits > byName["signoff"].CostUnits {
		t.Errorf("fast+ml cost %v should stay below signoff cost %v", ml.CostUnits, byName["signoff"].CostUnits)
	}
	if ml.AccuracyPct <= byName["fast"].AccuracyPct {
		t.Errorf("fast+ml accuracy %v%% should beat raw fast %v%%", ml.AccuracyPct, byName["fast"].AccuracyPct)
	}
}

func TestGBAToPBAPrediction(t *testing.T) {
	// The [20] near-term extension: predict path-based results from
	// graph-based analysis.
	train := designs(3, 40)
	test := designs(1, 55)[0]
	gba := sta.Config{Engine: sta.Signoff, SI: true}
	pba := sta.Config{Engine: sta.Signoff, SI: true, PathBased: true}
	m, err := Train(train, gba, pba)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CorrectedMAEPs >= ev.RawMAEPs {
		t.Errorf("GBA->PBA model did not help: %v vs %v", ev.RawMAEPs, ev.CorrectedMAEPs)
	}
}

func TestSIPrediction(t *testing.T) {
	// Ref [27] "SI for free": predict SI-mode slacks from non-SI.
	train := designs(3, 60)
	test := designs(1, 66)[0]
	noSI := sta.Config{Engine: sta.Signoff}
	withSI := sta.Config{Engine: sta.Signoff, SI: true}
	m, err := Train(train, noSI, withSI)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CorrectedMAEPs >= ev.RawMAEPs {
		t.Errorf("SI model did not help: %v vs %v", ev.RawMAEPs, ev.CorrectedMAEPs)
	}
}
