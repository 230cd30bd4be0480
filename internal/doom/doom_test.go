package doom

import (
	"testing"

	"repro/internal/logfile"
	"repro/internal/mdp"
	"repro/internal/route"
)

// trainingCorpus builds a small mixed corpus the card can learn from.
func trainingCorpus(t *testing.T) []logfile.Run {
	t.Helper()
	return logfile.Generate(logfile.CorpusSpec{
		Name: "artificial", Runs: 80, Seed: 1, Designs: 2, Workers: 2,
	})
}

func TestSupervisorStopsDoomedSparesSuccessful(t *testing.T) {
	runs := trainingCorpus(t)
	card := mdp.BuildCard(runs)
	sup := New(card, 2)
	sup.Budget = 20

	// Replay each run through a fresh per-run hook; the live decision
	// must agree with the post-hoc Outcome at the same k.
	stoppedDoomed, doomed, stoppedSucc, succ := 0, 0, 0, 0
	for i, r := range runs {
		hook := sup.Hook(r.Corpus + string(rune(i)))
		stopAt := 0
		for iter := 1; iter < len(r.DRVs); iter++ {
			if hook(iter, r.DRVs[:iter+1]) == route.Stop {
				stopAt = iter
				break
			}
		}
		want := card.Outcome(r, 2)
		if (stopAt == 0) != (want < 0) || (stopAt > 0 && stopAt != want) {
			t.Fatalf("run %d: live stop at %d, post-hoc Outcome %d", i, stopAt, want)
		}
		if r.Success {
			succ++
			if stopAt > 0 {
				stoppedSucc++
			}
		} else {
			doomed++
			if stopAt > 0 {
				stoppedDoomed++
			}
		}
	}
	if doomed == 0 || succ == 0 {
		t.Fatalf("degenerate corpus: %d doomed, %d successful", doomed, succ)
	}
	if stoppedDoomed < doomed*5/10 {
		t.Errorf("card stopped only %d/%d doomed runs live", stoppedDoomed, doomed)
	}
	if stoppedSucc > succ/2 {
		t.Errorf("card stopped %d/%d successful runs live", stoppedSucc, succ)
	}
	decisions, stops, saved := sup.Stats()
	if decisions == 0 {
		t.Fatal("no card consultations counted")
	}
	if int(stops) != stoppedDoomed+stoppedSucc {
		t.Fatalf("stops counter %d, observed %d", stops, stoppedDoomed+stoppedSucc)
	}
	if stops > 0 && saved == 0 {
		t.Error("stops happened but no saved iterations counted")
	}
}

func TestSupervisorStreakResetOnGo(t *testing.T) {
	// A hand-built card that STOPs everywhere makes streak mechanics
	// observable: with Consecutive=3 the third verdict stops the run.
	card := mdp.BuildCard(nil)
	for vb := range card.Action {
		for ds := range card.Action[vb] {
			card.Action[vb][ds] = mdp.STOP
		}
	}
	sup := New(card, 3)
	hook := sup.Hook("run-a")
	drvs := []int{5000, 4900, 4800, 4700, 4600}
	if hook(1, drvs[:2]) != route.Continue {
		t.Fatal("first STOP verdict must not kill the run")
	}
	if hook(2, drvs[:3]) != route.Continue {
		t.Fatal("second STOP verdict must not kill the run")
	}
	if hook(3, drvs[:4]) != route.Stop {
		t.Fatal("third consecutive STOP must kill the run")
	}
	// Independent runs do not share streaks.
	other := sup.Hook("run-b")
	if other(1, drvs[:2]) != route.Continue {
		t.Fatal("fresh run inherited another run's streak")
	}
}
