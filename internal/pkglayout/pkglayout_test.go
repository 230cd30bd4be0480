package pkglayout

import (
	"math"
	"math/rand"
	"testing"
)

// Valid reports whether an assignment is a partial injection into the
// ball set.
func Valid(a Assignment, numBalls int) bool {
	seen := make(map[int]bool, len(a))
	for _, bi := range a {
		if bi < 0 || bi >= numBalls || seen[bi] {
			return false
		}
		seen[bi] = true
	}
	return true
}

func randomSignals(n int, seed int64) []Signal {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]Signal, n)
	for i := range sigs {
		sigs[i] = Signal{
			Name:  string(rune('a' + i%26)),
			Angle: rng.Float64() * 2 * math.Pi,
			R:     10,
		}
	}
	return sigs
}

// spreadSignals models physical I/O placement: pads distributed around
// the die edge with jitter (crossing-free fanout exists by construction).
func spreadSignals(n int, seed int64) []Signal {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]Signal, n)
	for i := range sigs {
		base := 2 * math.Pi * float64(i) / float64(n)
		jitter := (rng.Float64() - 0.5) * 2 * math.Pi / float64(2*n)
		sigs[i] = Signal{Name: string(rune('a' + i%26)), Angle: base + jitter, R: 10}
	}
	return sigs
}

func TestRobotCrossingFree(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		sigs := spreadSignals(12, seed)
		balls := Ring(16, 25)
		a := Robot(sigs, balls)
		if a == nil {
			t.Fatal("no assignment")
		}
		if !Valid(a, len(balls)) {
			t.Fatal("invalid assignment")
		}
		if c := Crossings(sigs, balls, a); c != 0 {
			t.Errorf("seed %d: robot assignment has %d crossings", seed, c)
		}
	}
}

func TestRobotBeatsGreedy(t *testing.T) {
	var robotLen, greedyLen float64
	var robotCross, greedyCross int
	for seed := int64(0); seed < 10; seed++ {
		sigs := randomSignals(14, seed)
		balls := Ring(18, 25)
		ra := Robot(sigs, balls)
		ga := Greedy(sigs, balls)
		robotLen += Length(sigs, balls, ra)
		greedyLen += Length(sigs, balls, ga)
		robotCross += Crossings(sigs, balls, ra)
		greedyCross += Crossings(sigs, balls, ga)
	}
	if robotCross > greedyCross/4 {
		t.Errorf("robot crossings %d not far below greedy %d", robotCross, greedyCross)
	}
	if greedyCross == 0 {
		t.Error("greedy should tangle at least once over 10 seeds")
	}
	if robotLen > greedyLen*1.3 {
		t.Errorf("robot length %v much worse than greedy %v", robotLen, greedyLen)
	}
}

func TestAlignedCaseIsShort(t *testing.T) {
	// Signals exactly facing balls: the optimal rotation is the
	// radial one, total length = n * (ringR - dieR).
	n := 8
	sigs := make([]Signal, n)
	for i := range sigs {
		sigs[i] = Signal{Angle: 2 * math.Pi * float64(i) / float64(n), R: 10}
	}
	balls := Ring(n, 25)
	a := Robot(sigs, balls)
	want := float64(n) * 15
	if got := Length(sigs, balls, a); math.Abs(got-want) > 1e-6 {
		t.Errorf("aligned length %v, want %v", got, want)
	}
}

func TestDegenerateInputs(t *testing.T) {
	if Robot(nil, Ring(4, 10)) != nil {
		t.Error("no signals should return nil")
	}
	if Robot(randomSignals(5, 1), Ring(3, 10)) != nil {
		t.Error("too few balls should return nil")
	}
	if Greedy(randomSignals(5, 1), Ring(3, 10)) != nil {
		t.Error("greedy with too few balls should return nil")
	}
}

func TestValid(t *testing.T) {
	if !Valid(Assignment{0, 2, 1}, 3) {
		t.Error("bijection rejected")
	}
	if Valid(Assignment{0, 0}, 3) {
		t.Error("duplicate accepted")
	}
	if Valid(Assignment{0, 5}, 3) {
		t.Error("out of range accepted")
	}
}

func TestRingUniform(t *testing.T) {
	balls := Ring(12, 30)
	if len(balls) != 12 {
		t.Fatal("ring size")
	}
	for i := 1; i < len(balls); i++ {
		gap := balls[i].Angle - balls[i-1].Angle
		if math.Abs(gap-2*math.Pi/12) > 1e-9 {
			t.Fatal("ring not uniform")
		}
	}
}
