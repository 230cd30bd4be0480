// Package doom is the live doomed-run runtime: it wires the MDP
// strategy card of Fig. 10 into the detailed router's iteration hook so
// STOP decisions are acted on while the tool runs — reclaiming the
// license and the remaining rip-up iterations — instead of being graded
// against finished logfiles as in the post-hoc Table 1 evaluation.
//
// A Supervisor is safe for concurrent use across a whole campaign: it
// keeps one consecutive-STOP streak per run (the paper's hysteresis
// against stopping successful runs that merely pass through bad card
// states while decaying) and mirrors its decision counters into the
// process-wide metrics registry, so a METRICS /stats page shows live
// stops and reclaimed iterations as the campaign executes.
package doom

import (
	"sync"
	"sync/atomic"

	"repro/internal/mdp"
	"repro/internal/metrics"
	"repro/internal/route"
)

// Supervisor applies an mdp.Card between rip-up passes, through the
// per-run route.IterHook that Hook returns.
type Supervisor struct {
	// Card is the trained GO/STOP strategy card.
	Card *mdp.Card
	// Consecutive is the number of consecutive STOP verdicts required
	// before the run is actually killed (the Table 1 knob; default 2).
	Consecutive int
	// Budget is the router iteration budget, used only for the
	// saved-iteration counter (0 disables that counter).
	Budget int

	mu     sync.Mutex
	streak map[string]int

	decisions atomic.Int64
	stops     atomic.Int64
	saved     atomic.Int64
}

// New creates a supervisor for a trained card requiring k consecutive
// STOPs (k < 1 is clamped to the default of 2).
func New(card *mdp.Card, k int) *Supervisor {
	if k < 1 {
		k = 2
	}
	return &Supervisor{Card: card, Consecutive: k, streak: map[string]int{}}
}

// Hook returns a route.IterHook bound to one run, for callers that
// drive route.DetailRouteCtx directly (corpus generation, benchmarks).
// runKey must be unique per concurrent run.
func (s *Supervisor) Hook(runKey string) route.IterHook {
	return func(iter int, drvs []int) route.IterAction {
		return s.decide(runKey, iter, drvs)
	}
}

func (s *Supervisor) decide(key string, iter int, drvs []int) route.IterAction {
	if s.Card == nil || len(drvs) < 2 {
		return route.Continue
	}
	s.decisions.Add(1)
	metrics.Add("doom.live.decisions", 1)
	verdict := s.Card.Decide(drvs[len(drvs)-2], drvs[len(drvs)-1])

	s.mu.Lock()
	defer s.mu.Unlock()
	if verdict != mdp.STOP {
		delete(s.streak, key)
		return route.Continue
	}
	s.streak[key]++
	if s.streak[key] < s.Consecutive {
		return route.Continue
	}
	delete(s.streak, key) // run is over; free the entry
	s.stops.Add(1)
	metrics.Add("doom.live.stops", 1)
	if s.Budget > iter {
		saved := int64(s.Budget - iter)
		s.saved.Add(saved)
		metrics.Add("doom.live.saved_iters", saved)
	}
	return route.Stop
}

// Stats reports the supervisor's lifetime counters: card consultations,
// live STOPs issued, and router iterations reclaimed by those STOPs.
func (s *Supervisor) Stats() (decisions, stops, savedIters int64) {
	return s.decisions.Load(), s.stops.Load(), s.saved.Load()
}
