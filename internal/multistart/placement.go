package multistart

import (
	"math"
	"math/rand"

	"repro/internal/netlist"
)

// PlacementProblem adapts standard-cell placement to the multistart
// Problem interface: solutions are permutations of cells onto a fixed
// slot set, local search is swap-based hill climbing on HPWL, and
// Combine is an elite crossover that moves cells toward positions they
// occupy in other elite solutions.
type PlacementProblem struct {
	n      *netlist.Netlist
	slotsX []float64
	slotsY []float64
	netsOf [][]int
}

// Perm is a placement solution: Perm[cell] = slot index.
type Perm []int

// NewPlacementProblem builds the problem around a netlist. The current
// instance coordinates define the legal slot set, so call it after an
// initial placement (e.g. netlist.SpreadInitial or place.Place).
func NewPlacementProblem(n *netlist.Netlist) *PlacementProblem {
	p := &PlacementProblem{n: n}
	p.slotsX = make([]float64, n.NumCells())
	p.slotsY = make([]float64, n.NumCells())
	for i := range n.Insts {
		p.slotsX[i] = n.Insts[i].X
		p.slotsY[i] = n.Insts[i].Y
	}
	p.netsOf = make([][]int, n.NumCells())
	for i := range n.Nets {
		net := &n.Nets[i]
		if net.IsClock {
			continue
		}
		if net.Driver >= 0 {
			p.netsOf[net.Driver] = append(p.netsOf[net.Driver], i)
		}
		for _, s := range net.Sinks {
			p.netsOf[s.Inst] = append(p.netsOf[s.Inst], i)
		}
	}
	return p
}

// coords returns the location of a cell under a permutation.
func (p *PlacementProblem) coords(perm Perm, cell int) (float64, float64) {
	return p.slotsX[perm[cell]], p.slotsY[perm[cell]]
}

// netHPWL computes one net's HPWL under a permutation.
func (p *PlacementProblem) netHPWL(perm Perm, netID int) float64 {
	net := &p.n.Nets[netID]
	first := true
	var minX, maxX, minY, maxY float64
	add := func(cell int) {
		x, y := p.coords(perm, cell)
		if first {
			minX, maxX, minY, maxY = x, x, y, y
			first = false
			return
		}
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
		minY, maxY = math.Min(minY, y), math.Max(maxY, y)
	}
	if net.Driver >= 0 {
		add(net.Driver)
	}
	for _, s := range net.Sinks {
		add(s.Inst)
	}
	if first {
		return 0
	}
	return (maxX - minX) + (maxY - minY)
}

// RandomStart implements Problem.
func (p *PlacementProblem) RandomStart(rng *rand.Rand) any {
	return Perm(rng.Perm(p.n.NumCells()))
}

// LocalOpt implements Problem: first-improvement swap hill climbing.
func (p *PlacementProblem) LocalOpt(s any, rng *rand.Rand, steps int) any {
	perm := append(Perm(nil), s.(Perm)...)
	numCells := len(perm)
	for it := 0; it < steps; it++ {
		a, b := rng.Intn(numCells), rng.Intn(numCells)
		if a == b {
			continue
		}
		var before float64
		for _, nid := range p.netsOf[a] {
			before += p.netHPWL(perm, nid)
		}
		for _, nid := range p.netsOf[b] {
			before += p.netHPWL(perm, nid)
		}
		perm[a], perm[b] = perm[b], perm[a]
		var after float64
		for _, nid := range p.netsOf[a] {
			after += p.netHPWL(perm, nid)
		}
		for _, nid := range p.netsOf[b] {
			after += p.netHPWL(perm, nid)
		}
		if after > before {
			perm[a], perm[b] = perm[b], perm[a] // revert
		}
	}
	return perm
}

// Cost implements Problem: total HPWL.
func (p *PlacementProblem) Cost(s any) float64 {
	perm := s.(Perm)
	var total float64
	for i := range p.n.Nets {
		if p.n.Nets[i].IsClock {
			continue
		}
		total += p.netHPWL(perm, i)
	}
	return total
}

// Distance implements Problem: mean per-cell Manhattan distance.
func (p *PlacementProblem) Distance(a, b any) float64 {
	pa, pb := a.(Perm), b.(Perm)
	var d float64
	for cell := range pa {
		ax, ay := p.coords(pa, cell)
		bx, by := p.coords(pb, cell)
		d += math.Abs(ax-bx) + math.Abs(ay-by)
	}
	return d / float64(len(pa))
}

// Combine implements Problem: start from the best elite and pull a
// random subset of cells toward their slots in other elites via swaps.
func (p *PlacementProblem) Combine(elite []any, rng *rand.Rand) any {
	base := append(Perm(nil), elite[0].(Perm)...)
	if len(elite) == 1 {
		// Nothing to cross with: perturb lightly instead.
		for k := 0; k < len(base)/10+1; k++ {
			a, b := rng.Intn(len(base)), rng.Intn(len(base))
			base[a], base[b] = base[b], base[a]
		}
		return base
	}
	// slotOwner[slot] = cell occupying it in base.
	owner := make([]int, len(base))
	for cell, slot := range base {
		owner[slot] = cell
	}
	moves := len(base)/4 + 1
	for k := 0; k < moves; k++ {
		donor := elite[1+rng.Intn(len(elite)-1)].(Perm)
		cell := rng.Intn(len(base))
		want := donor[cell]
		cur := base[cell]
		if want == cur {
			continue
		}
		other := owner[want]
		base[cell], base[other] = want, cur
		owner[want], owner[cur] = cell, other
	}
	return base
}
