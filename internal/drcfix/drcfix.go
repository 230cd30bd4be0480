// Package drcfix implements the robot engineer for manual DRC violation
// fixing — the first of the paper's "obvious, high-value applications"
// for robot engineers in Sec. 3.1 ("automation of manual DRC violation
// fixing"). A routing run that ends under the 200-DRV success threshold
// still leaves violations that humans fix by hand, one at a time, where
// each fix can disturb neighbors and create new violations.
//
// The simulator models that: violations live on a congestion grid, a fix
// attempt succeeds with a probability that falls with local crowding,
// and a successful fix may spawn secondary violations nearby. The robot
// applies an expert strategy (decongest the worst neighborhoods first,
// escalate fix strength after repeated failures); the baseline attacks
// violations in arbitrary order.
package drcfix

import (
	"math/rand"

	"repro/internal/num"
)

// Violation is one design-rule violation.
type Violation struct {
	ID   int
	X, Y int // congestion-grid cell
	Kind Kind
	// Attempts counts fix tries so far (escalation input).
	Attempts int
}

// Kind classifies a violation.
type Kind int

// Violation kinds, in increasing fix difficulty.
const (
	Spacing Kind = iota
	ViaEnclosure
	Width
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Spacing:
		return "spacing"
	case ViaEnclosure:
		return "via"
	default:
		return "width"
	}
}

// baseFixProb is the per-attempt success probability by kind in an
// uncrowded neighborhood.
var baseFixProb = [numKinds]float64{Spacing: 0.8, ViaEnclosure: 0.6, Width: 0.45}

// Field is the violation landscape.
type Field struct {
	GridDim    int
	Violations map[int]*Violation
	nextID     int
	rng        *rand.Rand
}

// NewField seeds a field with n violations clustered into hotspots (real
// residual DRVs cluster where congestion was worst).
func NewField(n, gridDim int, seed int64) *Field {
	if gridDim <= 0 {
		gridDim = 12
	}
	f := &Field{GridDim: gridDim, Violations: map[int]*Violation{}, rng: rand.New(num.NewRand(seed))}
	// A few hotspot centers; violations scatter around them.
	centers := 1 + n/25
	cx := make([]int, centers)
	cy := make([]int, centers)
	for i := range cx {
		cx[i] = f.rng.Intn(gridDim)
		cy[i] = f.rng.Intn(gridDim)
	}
	for i := 0; i < n; i++ {
		c := f.rng.Intn(centers)
		f.add(clampInt(cx[c]+f.rng.Intn(5)-2, 0, gridDim-1),
			clampInt(cy[c]+f.rng.Intn(5)-2, 0, gridDim-1),
			Kind(f.rng.Intn(int(numKinds))))
	}
	return f
}

func (f *Field) add(x, y int, k Kind) *Violation {
	v := &Violation{ID: f.nextID, X: x, Y: y, Kind: k}
	f.nextID++
	f.Violations[v.ID] = v
	return v
}

// Count returns the open violation count.
func (f *Field) Count() int { return len(f.Violations) }

// crowding returns how many violations share the cell and its 4
// neighbors.
func (f *Field) crowding(x, y int) int {
	c := 0
	for _, v := range f.Violations {
		dx, dy := v.X-x, v.Y-y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy <= 1 {
			c++
		}
	}
	return c
}

// TryFix attempts one violation. Success removes it but may spawn a
// secondary violation nearby when the neighborhood is crowded; failure
// increments the attempt count. Escalated attempts (Attempts >= 2) use a
// stronger fix: higher success odds but a higher spawn chance too.
func (f *Field) TryFix(id int) (fixed bool, spawned int) {
	v, ok := f.Violations[id]
	if !ok {
		return false, 0
	}
	crowd := f.crowding(v.X, v.Y)
	p := baseFixProb[v.Kind] / (1 + 0.25*float64(crowd-1))
	spawnP := 0.10 + 0.05*float64(crowd-1)
	if v.Attempts >= 2 { // escalated fix (bigger rip-up)
		p = minF(1, p*1.8)
		spawnP += 0.15
	}
	if f.rng.Float64() < p {
		delete(f.Violations, id)
		if f.rng.Float64() < spawnP {
			nx := clampInt(v.X+f.rng.Intn(3)-1, 0, f.GridDim-1)
			ny := clampInt(v.Y+f.rng.Intn(3)-1, 0, f.GridDim-1)
			f.add(nx, ny, Kind(f.rng.Intn(int(numKinds))))
			spawned = 1
		}
		return true, spawned
	}
	v.Attempts++
	return false, 0
}

// Result summarizes a fixing campaign.
type Result struct {
	Strategy   string
	StartCount int
	FinalCount int
	Attempts   int
	Cleaned    bool
}

// RunRobot runs the expert strategy: always attack the violation with
// the highest immediate fix probability (easy kinds in uncrowded
// neighborhoods first). Clearing the easy periphery thins crowding
// around the hard cores, so their fix odds improve by the time the
// robot reaches them; escalation (tracked per violation) is accounted
// for in the odds. Budget caps total attempts.
func RunRobot(f *Field, budget int) Result {
	res := Result{Strategy: "robot", StartCount: f.Count()}
	for res.Attempts < budget && f.Count() > 0 {
		bestID := -1
		bestP := -1.0
		for id, v := range f.Violations {
			crowd := f.crowding(v.X, v.Y)
			p := baseFixProb[v.Kind] / (1 + 0.25*float64(crowd-1))
			if v.Attempts >= 2 {
				p = minF(1, p*1.8)
			}
			if p > bestP || (p == bestP && id < bestID) {
				bestID, bestP = id, p
			}
		}
		f.TryFix(bestID)
		res.Attempts++
	}
	res.FinalCount = f.Count()
	res.Cleaned = res.FinalCount == 0
	return res
}

// RunNaive attacks violations in arbitrary (ID) order without
// escalation awareness — the trial-and-error baseline.
func RunNaive(f *Field, budget int) Result {
	res := Result{Strategy: "naive", StartCount: f.Count()}
	for res.Attempts < budget && f.Count() > 0 {
		// Lowest-ID open violation.
		bestID := -1
		for id := range f.Violations {
			if bestID < 0 || id < bestID {
				bestID = id
			}
		}
		f.TryFix(bestID)
		res.Attempts++
	}
	res.FinalCount = f.Count()
	res.Cleaned = res.FinalCount == 0
	return res
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
