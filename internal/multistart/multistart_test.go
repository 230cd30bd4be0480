package multistart

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cellib"
	"repro/internal/netlist"
)

// toy is a deceptive continuous problem with big-valley structure: cost
// is a paraboloid at the origin plus sinusoidal ripple; local opt is
// coordinate descent with small steps.
type toy struct{ dim int }

func (t toy) RandomStart(rng *rand.Rand) any {
	v := make([]float64, t.dim)
	for i := range v {
		v[i] = rng.Float64()*20 - 10
	}
	return v
}

func (t toy) Cost(s any) float64 {
	v := s.([]float64)
	var c float64
	for _, x := range v {
		c += x*x + 3*math.Sin(2*x)*math.Sin(2*x)
	}
	return c
}

func (t toy) LocalOpt(s any, rng *rand.Rand, steps int) any {
	v := append([]float64(nil), s.([]float64)...)
	for it := 0; it < steps; it++ {
		i := rng.Intn(len(v))
		old := v[i]
		v[i] += rng.NormFloat64() * 0.3
		if t.Cost(v) > t.costWith(v, i, old) {
			v[i] = old
		}
	}
	return v
}

func (t toy) costWith(v []float64, i int, x float64) float64 {
	old := v[i]
	v[i] = x
	c := t.Cost(v)
	v[i] = old
	return c
}

func (t toy) Distance(a, b any) float64 {
	va, vb := a.([]float64), b.([]float64)
	var d float64
	for i := range va {
		d += math.Abs(va[i] - vb[i])
	}
	return d / float64(len(va))
}

func (t toy) Combine(elite []any, rng *rand.Rand) any {
	v := make([]float64, t.dim)
	for i := range v {
		pick := elite[rng.Intn(len(elite))].([]float64)
		v[i] = pick[i] + rng.NormFloat64()*0.5
	}
	return v
}

func TestAdaptiveOnToy(t *testing.T) {
	p := toy{dim: 6}
	res := Adaptive(p, Config{Starts: 16, LocalSteps: 400, Seed: 1})
	if res.BestCost > 5 {
		t.Errorf("best cost %v too high", res.BestCost)
	}
	if res.AdaptiveStarts == 0 {
		t.Error("no adaptive starts executed")
	}
	if len(res.Costs) != 16 {
		t.Errorf("%d costs recorded", len(res.Costs))
	}
}

func TestBigValleyCorrelationPositive(t *testing.T) {
	// On a big-valley landscape, worse local minima sit farther from
	// the best one; average correlation over seeds should be positive.
	p := toy{dim: 6}
	var corr float64
	for seed := int64(0); seed < 8; seed++ {
		res := Random(p, Config{Starts: 14, LocalSteps: 400, Seed: seed})
		corr += res.CostDistanceCorr
	}
	if corr/8 <= 0 {
		t.Errorf("mean cost-distance correlation %v, want > 0", corr/8)
	}
}

func TestAdaptiveBeatsRandomOnAverage(t *testing.T) {
	p := toy{dim: 8}
	var a, r float64
	for seed := int64(0); seed < 8; seed++ {
		cfg := Config{Starts: 12, LocalSteps: 250, Seed: seed}
		a += Adaptive(p, cfg).BestCost
		r += Random(p, cfg).BestCost
	}
	if a >= r {
		t.Errorf("adaptive mean %v not better than random mean %v", a/8, r/8)
	}
}

func TestRandomHasNoAdaptiveStarts(t *testing.T) {
	res := Random(toy{dim: 3}, Config{Starts: 6, LocalSteps: 50, Seed: 1})
	if res.AdaptiveStarts != 0 {
		t.Errorf("random baseline ran %d adaptive starts", res.AdaptiveStarts)
	}
}

func TestDeterministic(t *testing.T) {
	p := toy{dim: 4}
	cfg := Config{Starts: 8, LocalSteps: 100, Seed: 5}
	if Adaptive(p, cfg).BestCost != Adaptive(p, cfg).BestCost {
		t.Error("same seed differs")
	}
}

func placementProblem(seed int64) (*PlacementProblem, *netlist.Netlist) {
	n := netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
	return NewPlacementProblem(n), n
}

func TestPlacementProblemInterfaces(t *testing.T) {
	p, n := placementProblem(1)
	rng := rand.New(rand.NewSource(1))
	s := p.RandomStart(rng).(Perm)
	if len(s) != n.NumCells() {
		t.Fatalf("perm length %d", len(s))
	}
	// Permutation must be a bijection.
	seen := make([]bool, len(s))
	for _, slot := range s {
		if seen[slot] {
			t.Fatal("duplicate slot in random start")
		}
		seen[slot] = true
	}
	c0 := p.Cost(s)
	opt := p.LocalOpt(s, rng, 2000)
	if p.Cost(opt) > c0 {
		t.Errorf("local opt worsened cost: %v -> %v", c0, p.Cost(opt))
	}
	// Local opt must preserve the permutation property.
	seen = make([]bool, len(s))
	for _, slot := range opt.(Perm) {
		if seen[slot] {
			t.Fatal("duplicate slot after local opt")
		}
		seen[slot] = true
	}
}

func TestPlacementCombinePermutes(t *testing.T) {
	p, _ := placementProblem(2)
	rng := rand.New(rand.NewSource(2))
	a := p.LocalOpt(p.RandomStart(rng), rng, 500)
	b := p.LocalOpt(p.RandomStart(rng), rng, 500)
	c := p.LocalOpt(p.RandomStart(rng), rng, 500)
	child := p.Combine([]any{a, b, c}, rng).(Perm)
	seen := make([]bool, len(child))
	for _, slot := range child {
		if seen[slot] {
			t.Fatal("combine broke the permutation")
		}
		seen[slot] = true
	}
	// Child should be nearer the best elite than a random solution is.
	randDist := p.Distance(p.RandomStart(rng), a)
	childDist := p.Distance(child, a)
	if childDist >= randDist {
		t.Errorf("combine offspring not biased toward elite: %v vs random %v", childDist, randDist)
	}
}

func TestPlacementCombineSingleElite(t *testing.T) {
	p, _ := placementProblem(3)
	rng := rand.New(rand.NewSource(3))
	a := p.RandomStart(rng)
	child := p.Combine([]any{a}, rng).(Perm)
	seen := make([]bool, len(child))
	for _, slot := range child {
		if seen[slot] {
			t.Fatal("single-elite combine broke the permutation")
		}
		seen[slot] = true
	}
}

func TestPlacementAdaptiveRuns(t *testing.T) {
	p, _ := placementProblem(5)
	res := Adaptive(p, Config{Starts: 6, LocalSteps: 800, Seed: 1})
	if res.BestCost <= 0 {
		t.Fatal("no placement cost")
	}
	random := Random(p, Config{Starts: 6, LocalSteps: 800, Seed: 1})
	if res.BestCost > random.BestCost*1.15 {
		t.Errorf("adaptive placement %v much worse than random %v", res.BestCost, random.BestCost)
	}
}
