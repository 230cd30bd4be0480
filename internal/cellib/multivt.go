package cellib

import "fmt"

// Default14nmMultiVT builds the multi-threshold version of the default
// library: every combinational/sequential cell in SVT, HVT and LVT
// flavors. HVT is ~25% slower with ~3.5x less leakage; LVT is ~12%
// faster with ~3x more leakage — the knobs behind the "VT-swapping
// operations" that timing/power recovery performs (Sec. 3.2).
func Default14nmMultiVT() *Library {
	base := Default14nm()
	flavors := []struct {
		vt        VT
		delayMult float64
		leakMult  float64
	}{
		{SVT, 1.00, 1.0},
		{HVT, 1.25, 0.28},
		{LVT, 0.88, 3.0},
	}
	var cells []Cell
	for _, c := range base.Cells() {
		for _, f := range flavors {
			v := c
			v.VT = f.vt
			v.Intrinsic *= f.delayMult
			v.Resist *= f.delayMult
			v.Leakage *= f.leakMult
			if v.SetupTime > 0 {
				v.SetupTime *= f.delayMult
			}
			if v.ClkToQ > 0 {
				v.ClkToQ *= f.delayMult
			}
			if f.vt != SVT {
				v.Name = fmt.Sprintf("%s_%s", c.Name, f.vt)
			}
			cells = append(cells, v)
		}
	}
	return must(New("sim14mvt", base.Wire, base.RowPitch, cells))
}
