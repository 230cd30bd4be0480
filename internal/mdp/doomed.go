package mdp

import (
	"math"
	"strings"

	"repro/internal/logfile"
	"repro/internal/route"
)

// Action is a strategy-card decision.
type Action int

// GO continues the tool run for another iteration; STOP terminates it
// (the paper's blackjack "hit"/"stay" analogy).
const (
	GO Action = iota
	STOP
)

func (a Action) String() string {
	if a == STOP {
		return "STOP"
	}
	return "GO"
}

// The strategy card's state grid: violation bins of log2(DRVs+1) (as
// in Fig. 10's x-axis) by the change in bin, clamped to
// [-DeltaSpan, +DeltaSpan].
const (
	ViolBins  = 18
	DeltaSpan = 10
)

// The card MDP's rewards and discount.
const (
	stepReward    float64 = -1   // per continued iteration
	successReward float64 = 100  // ending with low DRVs
	failureReward float64 = -40  // running a doomed run to completion
	stopReward    float64 = 0    // terminating early
	cardGamma             = 0.98 // discount
)

// ViolBin maps a DRV count to its log-scale bin.
func ViolBin(drvs int) int {
	if drvs < 0 {
		drvs = 0
	}
	b := int(math.Log2(float64(drvs) + 1))
	if b >= ViolBins {
		b = ViolBins - 1
	}
	return b
}

// Card is the MDP-derived strategy card of Fig. 10: a GO/STOP action for
// every (binned violations, change in binned violations) state.
type Card struct {
	// Action[vb][ds] with ds = delta + DeltaSpan.
	Action [][]Action
	// Seen marks states observed in training data (unseen states are
	// filled programmatically per the paper's footnote 5).
	Seen [][]bool
	// Values holds the MDP state values for observed states.
	Values [][]float64
}

// deltaIndex clamps a bin delta into the card's delta axis.
func deltaIndex(delta int) int {
	return min(max(delta, -DeltaSpan), DeltaSpan) + DeltaSpan
}

// Decide returns the card's action for a current and previous DRV count.
func (card *Card) Decide(prevDRVs, curDRVs int) Action {
	vb := ViolBin(curDRVs)
	return card.Action[vb][deltaIndex(vb-ViolBin(prevDRVs))]
}

// String renders the card as an ASCII grid (rows = delta descending,
// columns = violation bin ascending; '.' GO, 'S' STOP, lowercase for
// filled-in unseen states).
func (card *Card) String() string {
	var b strings.Builder
	for ds := 2 * DeltaSpan; ds >= 0; ds-- {
		for vb := 0; vb < ViolBins; vb++ {
			ch := byte('.')
			if card.Action[vb][ds] == STOP {
				ch = 'S'
			}
			if !card.Seen[vb][ds] && ch == 'S' {
				ch = 's'
			} else if !card.Seen[vb][ds] && ch == '.' {
				ch = ','
			}
			b.WriteByte(ch)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BuildCard derives a strategy card from training logfiles: an empirical
// MDP over (violation bin, delta bin) states is assembled from the run
// series, solved by policy iteration, and unseen states are filled with
// the paper's footnote-5 rules.
func BuildCard(runs []logfile.Run) *Card {
	const nd = 2*DeltaSpan + 1
	const numGrid = ViolBins * nd
	// States: grid states, then 2 absorbing terminals (stop, done).
	stopState := numGrid
	doneState := numGrid + 1
	stateOf := func(vb, ds int) int { return vb*nd + ds }

	// Empirical transition counts for GO.
	counts := make([]map[int]float64, numGrid)
	for i := range counts {
		counts[i] = make(map[int]float64)
	}
	// Terminal reward accumulators for runs that end at a state.
	endReward := make([]float64, numGrid)
	endCount := make([]float64, numGrid)
	seen := make([]bool, numGrid)

	for _, r := range runs {
		if len(r.DRVs) < 2 {
			continue
		}
		prevState := -1
		for t := 1; t < len(r.DRVs); t++ {
			vb := ViolBin(r.DRVs[t])
			ds := deltaIndex(vb - ViolBin(r.DRVs[t-1]))
			s := stateOf(vb, ds)
			seen[s] = true
			if prevState >= 0 {
				counts[prevState][s]++
			}
			prevState = s
		}
		if prevState >= 0 {
			if r.Success {
				endReward[prevState] += successReward
			} else {
				endReward[prevState] += failureReward
			}
			endCount[prevState]++
		}
	}

	m := New(numGrid+2, 2, cardGamma)
	m.Terminal[stopState] = true
	m.Terminal[doneState] = true
	for s := 0; s < numGrid; s++ {
		// STOP: terminal with stop reward.
		m.Trans[s][int(STOP)] = []Transition{{To: stopState, Prob: 1}}
		m.Reward[s][int(STOP)] = stopReward
		// GO: empirical continuation plus empirical termination.
		var total float64
		for _, c := range counts[s] {
			total += c
		}
		total += endCount[s]
		if total == 0 {
			// Unseen or dead-end state: GO behaves like STOP.
			m.Trans[s][int(GO)] = []Transition{{To: stopState, Prob: 1}}
			m.Reward[s][int(GO)] = stopReward
			continue
		}
		var ts []Transition
		for to, c := range counts[s] {
			ts = append(ts, Transition{To: to, Prob: c / total})
		}
		reward := stepReward
		if endCount[s] > 0 {
			ts = append(ts, Transition{To: doneState, Prob: endCount[s] / total})
			reward += endReward[s] / total
		}
		m.Trans[s][int(GO)] = ts
		m.Reward[s][int(GO)] = reward
	}
	values, policy := m.PolicyIteration(0)

	card := &Card{
		Action: make([][]Action, ViolBins),
		Seen:   make([][]bool, ViolBins),
		Values: make([][]float64, ViolBins),
	}
	for vb := 0; vb < ViolBins; vb++ {
		card.Action[vb] = make([]Action, nd)
		card.Seen[vb] = make([]bool, nd)
		card.Values[vb] = make([]float64, nd)
		for ds := 0; ds < nd; ds++ {
			s := stateOf(vb, ds)
			card.Seen[vb][ds] = seen[s]
			card.Values[vb][ds] = values[s]
			if seen[s] {
				card.Action[vb][ds] = Action(policy[s])
			} else {
				card.Action[vb][ds] = fillRule(vb, ds-DeltaSpan)
			}
		}
	}
	return card
}

// fillRule implements the paper's footnote-5 programmatic fill-in for
// states absent from training logfiles:
//
//	(i)   large violations and positive slope  -> STOP
//	(ii)  small violations and large positive slope -> STOP
//	(iii) very large violations -> STOP
//	(iv)  everything else -> GO
func fillRule(violBin, delta int) Action {
	// Thresholds sit just above the success criterion (<200 DRVs is
	// bin ~7): a plateau at thousands of DRVs is hopeless whatever the
	// slope, and the consecutive-STOP hysteresis protects successful
	// runs that merely pass through these bins while decaying.
	large := violBin >= ViolBins*4/9     // "large violations" (~bin 8)
	veryLarge := violBin >= ViolBins*5/8 // "very large violations" (~bin 11)
	switch {
	case large && delta > 0:
		return STOP
	case !large && delta >= 3:
		return STOP
	case veryLarge:
		return STOP
	default:
		return GO
	}
}

// Outcome applies the card to one run, requiring k consecutive STOP
// signals before actually terminating. It returns the iteration at which
// the run was stopped (or -1 if it ran to completion).
func (card *Card) Outcome(r logfile.Run, k int) int {
	if k < 1 {
		k = 1
	}
	consec := 0
	for t := 1; t < len(r.DRVs); t++ {
		if card.Decide(r.DRVs[t-1], r.DRVs[t]) == STOP {
			consec++
			if consec >= k {
				return t
			}
		} else {
			consec = 0
		}
	}
	return -1
}

// EvalResult holds the Table-1 error accounting for one consecutive-STOP
// setting on one corpus.
type EvalResult struct {
	ConsecutiveStops int
	Runs             int
	Type1            int     // stopped a run that would have succeeded
	Type2            int     // let a doomed run go to completion
	TotalErrorPct    float64 // (Type1+Type2)/Runs * 100
	// IterationsSaved counts router iterations avoided on doomed runs
	// that were stopped early ("for the runs that are doomed,
	// substantial iterations are saved").
	IterationsSaved int
	IterationsTotal int
}

// Evaluate applies the card to a corpus with the given consecutive-STOP
// requirement and computes Type 1 / Type 2 error rates, using the
// paper's success criterion (final DRVs < 200).
func (card *Card) Evaluate(runs []logfile.Run, consecutiveStops int) EvalResult {
	res := EvalResult{ConsecutiveStops: consecutiveStops, Runs: len(runs)}
	for _, r := range runs {
		iters := len(r.DRVs) - 1
		res.IterationsTotal += iters
		stoppedAt := card.Outcome(r, consecutiveStops)
		success := r.Final < route.SuccessDRVThreshold
		switch {
		case stoppedAt >= 0 && success:
			res.Type1++
		case stoppedAt < 0 && !success:
			res.Type2++
		}
		if stoppedAt >= 0 && !success {
			res.IterationsSaved += iters - stoppedAt
		}
	}
	if res.Runs > 0 {
		res.TotalErrorPct = 100 * float64(res.Type1+res.Type2) / float64(res.Runs)
	}
	return res
}
