package sta

import (
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// Corners lists the standard corner set.
func Corners() []Corner { return []Corner{CornerTT, CornerSS, CornerFF, CornerSSCold} }

func TestCornerOrdering(t *testing.T) {
	n := netlist.Generate(cellib.Default14nm(), netlist.Tiny(31))
	wns := map[string]float64{}
	for _, c := range Corners() {
		rep := Analyze(n, Config{Engine: Signoff, Corner: c})
		wns[c.Name] = rep.WNSPs
	}
	// Slow corners must be worse than typical; fast better.
	if !(wns["ss"] < wns["tt"] && wns["tt"] < wns["ff"]) {
		t.Errorf("corner ordering broken: %v", wns)
	}
	if wns["ss-cold"] >= wns["tt"] {
		t.Errorf("ss-cold should be slow: %v", wns)
	}
}

func TestZeroCornerIsTypical(t *testing.T) {
	n := netlist.Generate(cellib.Default14nm(), netlist.Tiny(32))
	base := Analyze(n, Config{Engine: Signoff})
	tt := Analyze(n, Config{Engine: Signoff, Corner: CornerTT})
	if base.WNSPs != tt.WNSPs {
		t.Errorf("zero-value corner %v != explicit TT %v", base.WNSPs, tt.WNSPs)
	}
}

func TestCornerFactorsDefault(t *testing.T) {
	c, w, s := (Corner{}).factors()
	if c != 1 || w != 1 || s != 1 {
		t.Fatalf("zero corner factors %v %v %v", c, w, s)
	}
	c2, w2, s2 := (Corner{CellFactor: 1.3}).factors()
	if c2 != 1.3 || w2 != 1 || s2 != 1 {
		t.Fatalf("partial corner factors %v %v %v", c2, w2, s2)
	}
}

func TestCornersDistinctPerEndpoint(t *testing.T) {
	// The two slow corners have different cell/wire balances, so
	// wire-heavy endpoints should reorder between them — that residual
	// structure is what the missing-corner ML model learns.
	n := netlist.Generate(cellib.Default14nm(), netlist.Tiny(33))
	ss := Analyze(n, Config{Engine: Signoff, Corner: CornerSS})
	cold := Analyze(n, Config{Engine: Signoff, Corner: CornerSSCold})
	if len(ss.Endpoints) != len(cold.Endpoints) {
		t.Fatal("endpoint sets differ")
	}
	identicalRatio := true
	var firstRatio float64
	for i := range ss.Endpoints {
		if cold.Endpoints[i].Arrival == 0 {
			continue
		}
		ratio := ss.Endpoints[i].Arrival / cold.Endpoints[i].Arrival
		if firstRatio == 0 {
			firstRatio = ratio
		} else if ratio != firstRatio {
			identicalRatio = false
		}
	}
	if identicalRatio {
		t.Error("corners are a pure global scale; missing-corner prediction would be trivial")
	}
}
