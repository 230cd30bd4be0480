package repro

import (
	"fmt"
	"io"

	"repro/internal/doom"
	"repro/internal/logfile"
	"repro/internal/mdp"
	"repro/internal/route"
)

// ---------------------------------------------------------------------
// Live doomed-run abort: the Fig. 9/10 card acting while runs execute.

// DoomedLiveResult compares live supervised execution of the test
// corpus against the uninterrupted baseline and the post-hoc Table 1
// accounting. "Iterations" are detail-route rip-up passes — the unit of
// license occupancy the paper's STOP policy reclaims.
type DoomedLiveResult struct {
	Consecutive int // consecutive-STOP requirement used live
	TrainRuns   int
	TestRuns    int

	BaselineIters int // passes executed by the uninterrupted corpus
	LiveIters     int // passes executed under live supervision
	SavedIters    int // BaselineIters - LiveIters (reclaimed license-iterations)
	SavedPct      float64

	PostHocSavedIters int // Table 1's hypothetical savings at the same k

	StoppedRuns   int // runs the card killed live
	Type1         int // stopped runs that would have succeeded
	Type2         int // doomed runs that ran to completion anyway
	LiveErrorPct  float64
	QORMismatches int // finished runs whose DRV series differs from baseline (must be 0)
}

// DoomedLive trains the strategy card on the artificial corpus, then
// regenerates the embedded-CPU test corpus twice from identical seeds:
// once uninterrupted (the baseline every prior PR measured post hoc)
// and once with a doom.Supervisor wired into the router's iteration
// hook, so STOP verdicts truncate runs in place. Because CONTINUE
// decisions never touch the rng stream, every run the card lets finish
// is bit-identical to its baseline twin — the savings are pure
// reclaimed compute, not a QOR trade.
func DoomedLive(scale Scale, seed int64) DoomedLiveResult {
	train, test := Corpora(scale, seed)
	card := mdp.BuildCard(train, mdp.CardConfig{})
	const k = 2 // the Table 1 sweet spot: near-minimal error, most savings

	_, nTest, designs := corpusSizes(scale)
	sup := doom.New(card, k)
	sup.Budget = 20
	// The live corpus shares the test corpus's spec but not its
	// outcomes (STOPped runs are truncated), so its journal entries are
	// salted apart. Replay is safe: the card's verdicts are a pure
	// function of each run's series, and the supervisor's streak state
	// is per run key, so a replayed run perturbs nothing.
	live := journaledCorpus(logfile.CorpusSpec{
		Name: "embedded-cpu", Runs: nTest, Seed: seed + 1, Designs: designs,
		Workers: WorkerCount(),
		Supervise: func(id int, design string) route.IterHook {
			return sup.Hook(fmt.Sprintf("%s#%d", design, id))
		},
	}, fmt.Sprintf("live-k%d", k))

	res := DoomedLiveResult{
		Consecutive: k,
		TrainRuns:   len(train),
		TestRuns:    len(test),
	}
	res.PostHocSavedIters = card.Evaluate(test, k).IterationsSaved
	for i := range test {
		base, lv := &test[i], &live[i]
		res.BaselineIters += len(base.DRVs) - 1
		res.LiveIters += len(lv.DRVs) - 1
		if lv.StoppedAt > 0 {
			res.StoppedRuns++
			if base.Success {
				res.Type1++
			}
			// The executed prefix must still match the baseline exactly.
			if !prefixEqual(base.DRVs, lv.DRVs) {
				res.QORMismatches++
			}
			continue
		}
		if !base.Success {
			res.Type2++
		}
		if !intsEqual(base.DRVs, lv.DRVs) {
			res.QORMismatches++
		}
	}
	res.SavedIters = res.BaselineIters - res.LiveIters
	if res.BaselineIters > 0 {
		res.SavedPct = 100 * float64(res.SavedIters) / float64(res.BaselineIters)
	}
	if res.TestRuns > 0 {
		res.LiveErrorPct = 100 * float64(res.Type1+res.Type2) / float64(res.TestRuns)
	}
	return res
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	return prefixEqual(a, b)
}

// prefixEqual reports whether b is an exact prefix of a (b no longer
// than a, element-wise equal).
func prefixEqual(a, b []int) bool {
	if len(b) > len(a) {
		return false
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Print writes the live-vs-post-hoc comparison, ending with the same
// figures as key=value lines for a reader that greps the report
// (TestDoomedLiveShape reads the struct).
func (r DoomedLiveResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Live doomed-run abort (MDP card, %d consecutive STOPs, %d train / %d test logfiles)\n",
		r.Consecutive, r.TrainRuns, r.TestRuns)
	fmt.Fprintf(w, "detail-route iterations:  baseline %d, live %d (reclaimed %d = %.1f%%)\n",
		r.BaselineIters, r.LiveIters, r.SavedIters, r.SavedPct)
	fmt.Fprintf(w, "post-hoc (Table 1) bound: %d iterations on doomed runs\n", r.PostHocSavedIters)
	fmt.Fprintf(w, "runs stopped live:        %d of %d (Type1 %d, Type2 %d, error %.2f%%)\n",
		r.StoppedRuns, r.TestRuns, r.Type1, r.Type2, r.LiveErrorPct)
	fmt.Fprintf(w, "QOR drift on finished runs: %d (CONTINUE-classified runs are bit-identical when 0)\n",
		r.QORMismatches)
	fmt.Fprintf(w, "doomed_live_baseline_iters=%d\n", r.BaselineIters)
	fmt.Fprintf(w, "doomed_live_saved_iters=%d\n", r.SavedIters)
	fmt.Fprintf(w, "doomed_live_saved_pct=%.2f\n", r.SavedPct)
	fmt.Fprintf(w, "doomed_live_posthoc_saved_iters=%d\n", r.PostHocSavedIters)
	fmt.Fprintf(w, "doomed_live_qor_mismatches=%d\n", r.QORMismatches)
	fmt.Fprintf(w, "doomed_live_error_pct=%.2f\n", r.LiveErrorPct)
}
