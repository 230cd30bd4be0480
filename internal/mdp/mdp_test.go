package mdp

import (
	"math"
	"testing"
)

// chainMDP: states 0..n-1 in a line; action 0 moves right with reward -1,
// action 1 stays with reward 0; last state is terminal with entry reward
// +10 folded into the move.
func chainMDP(n int) *MDP {
	m := New(n, 2, 0.95)
	m.Terminal[n-1] = true
	for s := 0; s < n-1; s++ {
		m.Trans[s][0] = []Transition{{To: s + 1, Prob: 1}}
		m.Reward[s][0] = -1
		if s+1 == n-1 {
			m.Reward[s][0] = 10
		}
		m.Trans[s][1] = []Transition{{To: s, Prob: 1}}
		m.Reward[s][1] = 0
	}
	return m
}

func TestValidate(t *testing.T) {
	m := chainMDP(5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Trans[0][0][0].Prob = 0.5
	if err := m.Validate(); err == nil {
		t.Fatal("bad distribution not caught")
	}
	m2 := chainMDP(3)
	m2.Trans[0][0][0].To = 99
	if err := m2.Validate(); err == nil {
		t.Fatal("out-of-range target not caught")
	}
}

func TestValueIterationChain(t *testing.T) {
	m := chainMDP(6)
	v, policy := m.ValueIteration(1e-9, 0)
	// Moving right is optimal everywhere: the +10 at the end dominates.
	for s := 0; s < 5; s++ {
		if policy[s] != 0 {
			t.Errorf("state %d: policy %d, want move-right", s, policy[s])
		}
	}
	// Value increases toward the goal.
	for s := 1; s < 5; s++ {
		if v[s] <= v[s-1] {
			t.Errorf("values should rise toward goal: v[%d]=%v v[%d]=%v", s-1, v[s-1], s, v[s])
		}
	}
}

func TestPolicyIterationMatchesValueIteration(t *testing.T) {
	m := chainMDP(8)
	vVI, pVI := m.ValueIteration(1e-10, 0)
	vPI, pPI := m.PolicyIteration(0)
	for s := 0; s < m.NumStates; s++ {
		if pVI[s] != pPI[s] {
			t.Errorf("state %d: VI policy %d vs PI policy %d", s, pVI[s], pPI[s])
		}
		if math.Abs(vVI[s]-vPI[s]) > 1e-6 {
			t.Errorf("state %d: VI value %v vs PI value %v", s, vVI[s], vPI[s])
		}
	}
}

func TestStochasticMDP(t *testing.T) {
	// Two states: action 0 risky (50% +2 terminal, 50% back with -1),
	// action 1 safe (terminal +0.4). With gamma near 1, risky is
	// better in expectation.
	m := New(3, 2, 0.99)
	m.Terminal[2] = true
	m.Trans[0][0] = []Transition{{To: 2, Prob: 0.5}, {To: 0, Prob: 0.5}}
	m.Reward[0][0] = 0.5*2 + 0.5*(-1)
	m.Trans[0][1] = []Transition{{To: 2, Prob: 1}}
	m.Reward[0][1] = 0.4
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	_, policy := m.ValueIteration(1e-9, 0)
	if policy[0] != 0 {
		t.Errorf("expected risky action, got %d", policy[0])
	}
}

func TestTerminalStatesKeepZeroValue(t *testing.T) {
	m := chainMDP(4)
	v, _ := m.ValueIteration(1e-9, 0)
	if v[3] != 0 {
		t.Errorf("terminal value %v, want 0", v[3])
	}
}

func TestActionString(t *testing.T) {
	if GO.String() != "GO" || STOP.String() != "STOP" {
		t.Error("action names wrong")
	}
}

func TestViolBinMonotone(t *testing.T) {
	prev := -1
	for _, drv := range []int{0, 1, 3, 10, 50, 200, 1000, 10000, 1 << 20, 1 << 30} {
		b := ViolBin(drv)
		if b < prev {
			t.Fatalf("ViolBin not monotone at %d", drv)
		}
		if b < 0 || b >= ViolBins {
			t.Fatalf("ViolBin(%d) = %d out of range", drv, b)
		}
		prev = b
	}
	if ViolBin(-5) != 0 {
		t.Error("negative DRVs should bin to 0")
	}
}

func TestFillRules(t *testing.T) {
	// (iii) very large violations -> STOP even with negative slope.
	if fillRule(ViolBins-1, -5) != STOP {
		t.Error("very large violations should STOP")
	}
	// (i) large violations, positive slope -> STOP.
	if fillRule(ViolBins/2, 1) != STOP {
		t.Error("large violations with positive slope should STOP")
	}
	// (ii) small violations, large positive slope -> STOP.
	if fillRule(1, 4) != STOP {
		t.Error("small violations with large positive slope should STOP")
	}
	// (iv) small violations, negative slope -> GO.
	if fillRule(2, -2) != GO {
		t.Error("small violations with negative slope should GO")
	}
	// Moderately large with negative slope -> GO (the card's
	// distinctive region in Fig. 10).
	if fillRule(5, -2) != GO {
		t.Error("moderate violations improving should GO")
	}
}
