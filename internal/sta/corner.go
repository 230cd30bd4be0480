package sta

// Corner is a process/voltage/temperature analysis corner: multipliers
// on cell and wire delay relative to the typical corner. Multi-corner
// signoff multiplies analysis cost; the paper's [20] near-term
// extension (2) is "prediction of timing at 'missing corners' that are
// not analyzed, based on STA reports for corners that are analyzed" —
// implemented in internal/correlate on top of this corner model.
type Corner struct {
	Name        string
	CellFactor  float64 // stage-delay multiplier (1.0 = typical)
	WireFactor  float64 // wire-delay multiplier
	SetupFactor float64 // setup/clk-to-q multiplier
}

// Standard corners. The slow corner dominates setup signoff; the fast
// corner matters for hold (not modelled) and for optimism checks.
var (
	CornerTT = Corner{Name: "tt", CellFactor: 1.00, WireFactor: 1.00, SetupFactor: 1.00}
	CornerSS = Corner{Name: "ss", CellFactor: 1.28, WireFactor: 1.12, SetupFactor: 1.15}
	CornerFF = Corner{Name: "ff", CellFactor: 0.82, WireFactor: 0.93, SetupFactor: 0.92}
	// CornerSSCold is a second slow corner (low temperature) with a
	// different cell/wire balance — the "missing corner" in the
	// prediction experiment.
	CornerSSCold = Corner{Name: "ss-cold", CellFactor: 1.22, WireFactor: 1.20, SetupFactor: 1.12}
)

// factors returns the corner multipliers, defaulting to typical.
func (c Corner) factors() (cell, wire, setup float64) {
	if c.CellFactor <= 0 {
		return 1, 1, 1
	}
	w := c.WireFactor
	if w <= 0 {
		w = 1
	}
	s := c.SetupFactor
	if s <= 0 {
		s = 1
	}
	return c.CellFactor, w, s
}
