package hmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/logfile"
)

// twoRegimeSeqs draws sequences from a known 2-state generator.
func twoRegimeSeqs(n, length int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	var seqs [][]int
	for i := 0; i < n; i++ {
		state := 0
		var seq []int
		for t := 0; t < length; t++ {
			if rng.Float64() < 0.1 {
				state = 1 - state
			}
			if state == 0 {
				seq = append(seq, rng.Intn(3)) // symbols 0-2
			} else {
				seq = append(seq, 3+rng.Intn(3)) // symbols 3-5
			}
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func TestForwardProbabilitiesNormalized(t *testing.T) {
	h := New(2, 6, 1)
	alpha, _, ll, err := h.Forward([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Fatalf("loglik %v", ll)
	}
	for t2, a := range alpha {
		var sum float64
		for _, v := range a {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("alpha[%d] sums to %v", t2, sum)
		}
	}
}

func TestEmptySequenceErrors(t *testing.T) {
	h := New(2, 4, 1)
	if _, _, _, err := h.Forward(nil); err != ErrEmpty {
		t.Error("Forward should reject empty sequence")
	}
}

func TestBaumWelchIncreasesLikelihood(t *testing.T) {
	seqs := twoRegimeSeqs(20, 40, 2)
	h := New(2, 6, 3)
	var before float64
	for _, s := range seqs {
		ll, _ := h.LogLikelihood(s)
		before += ll
	}
	h.BaumWelch(seqs, 30)
	var after float64
	for _, s := range seqs {
		ll, _ := h.LogLikelihood(s)
		after += ll
	}
	if after <= before {
		t.Errorf("training did not improve likelihood: %v -> %v", before, after)
	}
}

func TestBaumWelchLearnsRegimes(t *testing.T) {
	seqs := twoRegimeSeqs(30, 60, 4)
	h := New(2, 6, 5)
	h.BaumWelch(seqs, 40)
	// After training, each state should specialize: one state mostly
	// emits symbols 0-2, the other 3-5.
	low0 := h.B[0][0] + h.B[0][1] + h.B[0][2]
	low1 := h.B[1][0] + h.B[1][1] + h.B[1][2]
	if !(low0 > 0.8 && low1 < 0.2 || low1 > 0.8 && low0 < 0.2) {
		t.Errorf("states did not specialize: low-mass %v vs %v", low0, low1)
	}
}

func TestSymbolize(t *testing.T) {
	r := logfile.Run{DRVs: []int{0, 10, 10000}}
	seq := Symbolize(r)
	if len(seq) != 3 {
		t.Fatalf("len %d", len(seq))
	}
	if !(seq[0] <= seq[1] && seq[1] <= seq[2]) {
		t.Error("symbols should be monotone in DRVs")
	}
}

func syntheticRun(id int, start, ratio, floor float64, iters int) logfile.Run {
	drvs := []int{int(start)}
	v := start
	for t := 0; t < iters; t++ {
		v = floor + (v-floor)*ratio
		drvs = append(drvs, int(v))
	}
	final := drvs[len(drvs)-1]
	return logfile.Run{ID: id, DRVs: drvs, Final: final, Success: final < 200}
}

func TestDetectorSeparatesDoomedFromSuccess(t *testing.T) {
	var train []logfile.Run
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			train = append(train, syntheticRun(i, 3000, 0.5, 0, 20))
		} else {
			train = append(train, syntheticRun(i, 20000, 0.85, 9000, 20))
		}
	}
	d := TrainDetector(train, 3, 1)
	doomed := syntheticRun(100, 25000, 0.85, 10000, 20)
	good := syntheticRun(101, 2500, 0.5, 0, 20)
	if at := d.Outcome(doomed, 2); at < 0 {
		t.Error("detector missed an obviously doomed run")
	}
	if at := d.Outcome(good, 3); at >= 0 {
		t.Errorf("detector stopped a clean run at %d", at)
	}
	res := d.Evaluate(train, 2)
	if res.TotalErrorPct > 30 {
		t.Errorf("training-set error %v%% too high", res.TotalErrorPct)
	}
}

func BenchmarkBaumWelch(b *testing.B) {
	seqs := twoRegimeSeqs(20, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := New(2, 6, int64(i))
		h.BaumWelch(seqs, 10)
	}
}
