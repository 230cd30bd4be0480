package mdp

import (
	"strings"
	"testing"

	"repro/internal/logfile"
)

// syntheticRun builds a Run with the given multiplicative DRV trajectory.
func syntheticRun(id int, start float64, ratio float64, iters int, floor float64) logfile.Run {
	drvs := []int{int(start)}
	v := start
	for t := 0; t < iters; t++ {
		v = floor + (v-floor)*ratio
		drvs = append(drvs, int(v))
	}
	final := drvs[len(drvs)-1]
	return logfile.Run{ID: id, Design: "synt", Corpus: "synt", DRVs: drvs, Final: final, Success: final < 200}
}

// syntheticCorpus mixes clean decays (success) and plateaus (doomed).
func syntheticCorpus(n int) []logfile.Run {
	var runs []logfile.Run
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0, 1: // success: decay to ~0
			runs = append(runs, syntheticRun(i, 3000+float64(i%7)*500, 0.55, 20, 0))
		case 2: // doomed: high plateau
			runs = append(runs, syntheticRun(i, 20000+float64(i%5)*3000, 0.8, 20, 8000))
		default: // doomed: moderate plateau
			runs = append(runs, syntheticRun(i, 6000, 0.7, 20, 1500))
		}
	}
	return runs
}

func TestBuildCardShape(t *testing.T) {
	card := BuildCard(syntheticCorpus(200))
	// STOP when DRVs are very large (right half of the card, paper's
	// reading of Fig. 10) with flat slope.
	if card.Action[ViolBins-1][deltaIndex(0)] != STOP {
		t.Error("very large flat DRVs should STOP")
	}
	// GO when DRVs are small.
	if card.Action[1][deltaIndex(0)] != GO {
		t.Error("small DRVs should GO")
	}
	// GO for moderately large DRVs with negative slope (bins 3-5
	// observation in the paper).
	if card.Action[4][deltaIndex(-2)] != GO {
		t.Error("moderate DRVs with negative slope should GO")
	}
}

func TestCardEvaluationErrorsFallWithConsecutiveStops(t *testing.T) {
	train := syntheticCorpus(300)
	test := syntheticCorpus(500)
	card := BuildCard(train)
	var prev float64 = 101
	for _, k := range []int{1, 2, 3} {
		res := card.Evaluate(test, k)
		if res.Runs != 500 {
			t.Fatalf("evaluated %d runs", res.Runs)
		}
		if res.TotalErrorPct > prev+5 {
			t.Errorf("error at k=%d (%v%%) much worse than k-1 (%v%%)", k, res.TotalErrorPct, prev)
		}
		prev = res.TotalErrorPct
	}
	// With 3 consecutive STOPs the policy should be reasonably accurate
	// on this clean synthetic corpus.
	res3 := card.Evaluate(test, 3)
	if res3.TotalErrorPct > 25 {
		t.Errorf("k=3 error %v%% too high", res3.TotalErrorPct)
	}
	if res3.IterationsSaved <= 0 {
		t.Error("doomed runs should save iterations")
	}
	if res3.IterationsSaved > res3.IterationsTotal {
		t.Error("saved more iterations than exist")
	}
}

func TestOutcomeConsecutiveStopsStricter(t *testing.T) {
	card := BuildCard(syntheticCorpus(200))
	doomed := syntheticRun(0, 30000, 0.85, 20, 9000)
	at1 := card.Outcome(doomed, 1)
	at3 := card.Outcome(doomed, 3)
	if at1 < 0 {
		t.Skip("policy never stops this run")
	}
	if at3 >= 0 && at3 < at1 {
		t.Errorf("k=3 stopped earlier (%d) than k=1 (%d)", at3, at1)
	}
}

func TestCardStringRenders(t *testing.T) {
	card := BuildCard(syntheticCorpus(100))
	s := card.String()
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if len(lines) != 2*DeltaSpan+1 {
		t.Fatalf("card render has %d rows", len(lines))
	}
	for _, l := range lines {
		if len(l) != ViolBins {
			t.Fatalf("row width %d, want %d", len(l), ViolBins)
		}
	}
	if !strings.ContainsAny(s, "Ss") || !strings.ContainsAny(s, ".,") {
		t.Error("card should contain both GO and STOP cells")
	}
}

func TestDecideUsesBins(t *testing.T) {
	card := BuildCard(syntheticCorpus(100))
	// Huge DRVs, no improvement: must be STOP in any sane card.
	if card.Decide(100000, 120000) != STOP {
		t.Error("exploding DRVs should STOP")
	}
	// Tiny DRVs: GO (or the run is about to end anyway).
	if card.Decide(10, 5) != GO {
		t.Error("near-clean run should GO")
	}
}

func TestEvaluateOnRealCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in short mode")
	}
	train := logfile.Generate(logfile.CorpusSpec{Name: "artificial", Runs: 240, Seed: 1, Designs: 3})
	test := logfile.Generate(logfile.CorpusSpec{Name: "embedded-cpu", Runs: 300, Seed: 2, Designs: 3})
	card := BuildCard(train)
	e1 := card.Evaluate(test, 1)
	e3 := card.Evaluate(test, 3)
	// The paper's qualitative result: requiring 3 consecutive STOPs
	// reduces Type-1 errors dramatically while Type-2 stays small.
	if e3.Type1 > e1.Type1 {
		t.Errorf("k=3 Type1 (%d) should not exceed k=1 Type1 (%d)", e3.Type1, e1.Type1)
	}
	if e3.TotalErrorPct > 50 {
		t.Errorf("k=3 error %v%% implausibly high", e3.TotalErrorPct)
	}
}

func BenchmarkBuildCard(b *testing.B) {
	runs := syntheticCorpus(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCard(runs)
	}
}

func BenchmarkEvaluateCard(b *testing.B) {
	runs := syntheticCorpus(300)
	card := BuildCard(runs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		card.Evaluate(runs, 3)
	}
}
