// Package partition implements Fiduccia-Mattheyses min-cut netlist
// bipartitioning, recursive partitioning, and intrinsic Rent-parameter
// extraction.
//
// The paper leans on partitioning twice: the Fig. 4(b) future flow
// decomposes "the design problem into many more small subproblems", and
// ML application (ii) of Sec. 3.3 is "identification of 'natural
// structure' in designs that will permit extreme partitioning and
// decomposition" (cf. ref [44], intrinsic Rent parameter evaluation).
// The Rent exponent extracted here is exactly that structural attribute:
// it quantifies how partitionable a design is, and feeds the prediction
// models as a feature.
package partition

import (
	"math"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/netlist"
	"repro/internal/num"
)

// Bipartition is the result of one min-cut split.
type Bipartition struct {
	// Side[inst] is 0 or 1 for instances in scope; -1 for out-of-scope.
	Side []int
	// CutNets counts nets with pins on both sides.
	CutNets int
	// Sizes are the cell counts per side.
	Sizes  [2]int
	Passes int
}

// fmGraph is the hypergraph view used by FM: for each net, its member
// instances (driver + sinks, deduplicated); for each instance, its nets.
type fmGraph struct {
	netsOf  [][]int
	cellsOf [][]int // per net
	netIDs  []int
	cells   []int
	indexOf map[int]int // instance -> dense index
}

func buildGraph(n *netlist.Netlist, scope []int) *fmGraph {
	g := &fmGraph{indexOf: make(map[int]int, len(scope))}
	g.cells = append([]int(nil), scope...)
	for i, inst := range g.cells {
		g.indexOf[inst] = i
	}
	g.netsOf = make([][]int, len(g.cells))
	for netID := range n.Nets {
		net := &n.Nets[netID]
		if net.IsClock {
			continue
		}
		var members []int
		seen := map[int]bool{}
		add := func(inst int) {
			if di, ok := g.indexOf[inst]; ok && !seen[inst] {
				seen[inst] = true
				members = append(members, di)
			}
		}
		if net.Driver >= 0 {
			add(net.Driver)
		}
		for _, s := range net.Sinks {
			add(s.Inst)
		}
		if len(members) < 2 {
			continue
		}
		denseNet := len(g.cellsOf)
		g.cellsOf = append(g.cellsOf, members)
		g.netIDs = append(g.netIDs, netID)
		for _, di := range members {
			g.netsOf[di] = append(g.netsOf[di], denseNet)
		}
	}
	return g
}

// Bisect splits the given instances (all instances if scope is nil) into
// two near-equal halves minimizing cut nets, using multi-pass FM with a
// balance tolerance of ~10%.
func Bisect(n *netlist.Netlist, scope []int, seed int64) Bipartition {
	if scope == nil {
		scope = make([]int, n.NumCells())
		for i := range scope {
			scope[i] = i
		}
	}
	rng := rand.New(num.NewRand(seed))
	g := buildGraph(n, scope)
	numCells := len(g.cells)
	res := Bipartition{Side: make([]int, n.NumCells())}
	for i := range res.Side {
		res.Side[i] = -1
	}
	if numCells == 0 {
		return res
	}

	// Random balanced initial assignment.
	side := make([]int, numCells)
	perm := rng.Perm(numCells)
	for i, p := range perm {
		if i < numCells/2 {
			side[p] = 0
		} else {
			side[p] = 1
		}
	}
	count := [2]int{}
	for _, s := range side {
		count[s]++
	}
	minSide := numCells/2 - numCells/10 - 1
	if minSide < 1 {
		minSide = 1
	}

	// netSideCount[net][s] = members on side s.
	netSideCount := make([][2]int, len(g.cellsOf))
	recount := func() {
		for net := range netSideCount {
			netSideCount[net] = [2]int{}
			for _, di := range g.cellsOf[net] {
				netSideCount[net][side[di]]++
			}
		}
	}
	recount()

	gain := func(di int) int {
		from := side[di]
		to := 1 - from
		gn := 0
		for _, net := range g.netsOf[di] {
			if netSideCount[net][from] == 1 {
				gn++ // moving uncuts the net
			}
			if netSideCount[net][to] == 0 {
				gn-- // moving cuts a previously internal net
			}
		}
		return gn
	}
	applyMove := func(di int) {
		from := side[di]
		to := 1 - from
		for _, net := range g.netsOf[di] {
			netSideCount[net][from]--
			netSideCount[net][to]++
		}
		side[di] = to
		count[from]--
		count[to]++
	}
	cut := func() int {
		c := 0
		for net := range netSideCount {
			if netSideCount[net][0] > 0 && netSideCount[net][1] > 0 {
				c++
			}
		}
		return c
	}

	// FM passes: move the best-gain unlocked cell (respecting balance),
	// lock it; track the best prefix; roll back past it.
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		locked := make([]bool, numCells)
		type rec struct {
			di   int
			gain int
		}
		var history []rec
		sum, bestSum, bestLen := 0, 0, 0
		for moves := 0; moves < numCells; moves++ {
			bestDi, bestGain := -1, math.MinInt
			for di := 0; di < numCells; di++ {
				if locked[di] || count[side[di]]-1 < minSide {
					continue
				}
				if gn := gain(di); gn > bestGain {
					bestDi, bestGain = di, gn
				}
			}
			if bestDi < 0 {
				break
			}
			applyMove(bestDi)
			locked[bestDi] = true
			sum += bestGain
			history = append(history, rec{di: bestDi, gain: bestGain})
			if sum > bestSum {
				bestSum, bestLen = sum, len(history)
			}
		}
		// Roll back moves past the best prefix.
		for i := len(history) - 1; i >= bestLen; i-- {
			applyMove(history[i].di)
		}
		res.Passes++
		if bestSum <= 0 {
			break
		}
	}

	for di, inst := range g.cells {
		res.Side[inst] = side[di]
	}
	res.CutNets = cut()
	res.Sizes = count
	return res
}

// RentPoint is one level of the recursive-bisection Rent analysis.
type RentPoint struct {
	Cells    int     // average block size at this level
	Pins     float64 // average external nets per block
	LogCells float64
	LogPins  float64
}

// RentResult is the intrinsic Rent-parameter evaluation.
type RentResult struct {
	Exponent float64 // the Rent exponent p in Pins ~ k * Cells^p
	K        float64 // the Rent coefficient
	R2       float64
	Points   []RentPoint
}

// Rent estimates the design's intrinsic Rent parameter by recursive
// min-cut bisection: at each level, blocks are split and the external
// net count (nets crossing the block boundary) is recorded; the Rent
// exponent is the log-log slope.
func Rent(n *netlist.Netlist, levels int, seed int64) RentResult {
	if levels <= 0 {
		levels = 4
	}
	blocks := [][]int{allCells(n)}
	var points []RentPoint
	points = append(points, RentPoint{
		Cells: len(blocks[0]),
		Pins:  float64(externalNets(n, blocks[0])),
	})
	for level := 0; level < levels; level++ {
		var next [][]int
		for bi, b := range blocks {
			if len(b) < 8 {
				next = append(next, b)
				continue
			}
			bp := Bisect(n, b, seed+int64(level*100+bi))
			var left, right []int
			for _, inst := range b {
				if bp.Side[inst] == 0 {
					left = append(left, inst)
				} else {
					right = append(right, inst)
				}
			}
			next = append(next, left, right)
		}
		blocks = next
		var cellSum, pinSum float64
		for _, b := range blocks {
			cellSum += float64(len(b))
			pinSum += float64(externalNets(n, b))
		}
		points = append(points, RentPoint{
			Cells: int(cellSum / float64(len(blocks))),
			Pins:  pinSum / float64(len(blocks)),
		})
	}

	var xs, ys []float64
	res := RentResult{}
	for i := range points {
		if points[i].Cells < 1 || points[i].Pins <= 0 {
			continue
		}
		points[i].LogCells = math.Log(float64(points[i].Cells))
		points[i].LogPins = math.Log(points[i].Pins)
		if i == 0 {
			// The whole-design point sits in Rent "region II": its
			// pins are only the package-level I/O, far below the
			// power-law trend. Standard Rent extraction excludes it.
			continue
		}
		xs = append(xs, points[i].LogCells)
		ys = append(ys, points[i].LogPins)
	}
	res.Points = points
	if len(xs) >= 2 {
		x2 := make([][]float64, len(xs))
		for i := range xs {
			x2[i] = []float64{xs[i]}
		}
		if reg, err := ml.FitLinear(x2, ys); err == nil {
			res.Exponent = reg.Coef[0]
			res.K = math.Exp(reg.Intercept)
			res.R2 = ml.R2(reg.PredictAll(x2), ys)
		}
	}
	return res
}

// allCells returns every instance ID.
func allCells(n *netlist.Netlist) []int {
	out := make([]int, n.NumCells())
	for i := range out {
		out[i] = i
	}
	return out
}

// externalNets counts nets with at least one pin inside the block and at
// least one outside (or an external connection: PI driver or external
// cap).
func externalNets(n *netlist.Netlist, block []int) int {
	in := make(map[int]bool, len(block))
	for _, inst := range block {
		in[inst] = true
	}
	count := 0
	for i := range n.Nets {
		net := &n.Nets[i]
		if net.IsClock {
			continue
		}
		inside, outside := false, false
		if net.Driver >= 0 {
			if in[net.Driver] {
				inside = true
			} else {
				outside = true
			}
		} else {
			outside = true // primary input enters from outside
		}
		for _, s := range net.Sinks {
			if in[s.Inst] {
				inside = true
			} else {
				outside = true
			}
		}
		if net.ExternalCap > 0 {
			outside = true
		}
		if inside && outside {
			count++
		}
	}
	return count
}
