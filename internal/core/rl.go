package core

import (
	"math/rand"

	"repro/internal/flow"
	"repro/internal/netlist"
)

// The paper's fourth stage of ML insertion "must cover considerable
// remaining ground — from reinforcement learning, to 'intelligence' in
// tools". QAgent is that stage's minimal concrete instance: a tabular
// Q-learning agent that tunes the flow's target frequency from run
// feedback, learning the back-off/push-up policy the Stage-1 robot had
// hard-coded.

// qState discretizes a flow outcome.
type qState int

const (
	qMetSlack  qState = iota // met with >5% period slack
	qMetTight                // met, tight
	qMissSmall               // timing miss < 10% of period
	qMissBig                 // timing miss >= 10%
	qRouteFail               // routing failed
	numQStates
)

// qAction adjusts the target frequency.
type qAction int

const (
	qDown8 qAction = iota
	qDown3
	qHold
	qUp3
	qUp8
	numQActions
)

var qActionFactor = [numQActions]float64{0.92, 0.97, 1.0, 1.03, 1.08}

// The agent's hyperparameters.
const (
	qAlpha   = 0.4 // learning rate
	qGamma   = 0.5 // discount
	qEpsilon = 0.2 // exploration at the first episode; decays per episode
)

// QAgent is a tabular Q-learning flow tuner.
type QAgent struct {
	Q [numQStates][numQActions]float64
}

// NewQAgent creates an agent. Q values start optimistic (above any
// reachable return) so every action gets tried systematically — with zero
// initialization the first rewarded action would lock in before
// alternatives were explored.
func NewQAgent() *QAgent {
	a := &QAgent{}
	for s := range a.Q {
		for act := range a.Q[s] {
			a.Q[s][act] = 4
		}
	}
	return a
}

// classify maps a flow result to a state.
func classify(res *flow.Result) qState {
	if !res.RouteOK {
		return qRouteFail
	}
	period := 1000 / res.Options.TargetFreqGHz
	switch {
	case res.WNSPs >= 0.05*period:
		return qMetSlack
	case res.WNSPs >= 0:
		return qMetTight
	case res.WNSPs > -0.1*period:
		return qMissSmall
	default:
		return qMissBig
	}
}

// reward scores an outcome: achieved frequency when met (normalized by
// refFreq), a penalty otherwise.
func reward(res *flow.Result, refFreq float64) float64 {
	if res.Met {
		return res.Options.TargetFreqGHz / refFreq
	}
	return -0.25
}

// EpisodeStats summarizes one training episode.
type EpisodeStats struct {
	Episode     int
	MeanReward  float64
	MetFraction float64
	FinalTarget float64
}

// Train runs Q-learning episodes. Each episode starts from the given
// options and performs stepsPer flow runs, adjusting the target by the
// chosen action after every run. Exploration decays across episodes.
func (a *QAgent) Train(design *netlist.Netlist, start flow.Options, episodes, stepsPer int, seed int64) []EpisodeStats {
	if episodes <= 0 {
		episodes = 8
	}
	if stepsPer <= 0 {
		stepsPer = 6
	}
	rng := rand.New(rand.NewSource(seed))
	refFreq := start.TargetFreqGHz
	if refFreq <= 0 {
		refFreq = 0.5
	}
	eps := qEpsilon
	var out []EpisodeStats
	for ep := 0; ep < episodes; ep++ {
		opts := start
		res := flow.Run(design, opts)
		state := classify(res)
		var total float64
		met := 0
		for step := 0; step < stepsPer; step++ {
			action := a.selectAction(state, eps, rng)
			opts.TargetFreqGHz *= qActionFactor[action]
			opts.Seed = seed + int64(ep*1000+step)
			res = flow.Run(design, opts)
			next := classify(res)
			r := reward(res, refFreq)
			total += r
			if res.Met {
				met++
			}
			// Q-learning update.
			best := a.Q[next][0]
			for _, q := range a.Q[next][1:] {
				if q > best {
					best = q
				}
			}
			a.Q[state][action] += qAlpha * (r + qGamma*best - a.Q[state][action])
			state = next
		}
		out = append(out, EpisodeStats{
			Episode:     ep,
			MeanReward:  total / float64(stepsPer),
			MetFraction: float64(met) / float64(stepsPer),
			FinalTarget: opts.TargetFreqGHz,
		})
		eps *= 0.85
	}
	return out
}

func (a *QAgent) selectAction(s qState, eps float64, rng *rand.Rand) qAction {
	if rng.Float64() < eps {
		return qAction(rng.Intn(int(numQActions)))
	}
	best, bestQ := qAction(0), a.Q[s][0]
	for act := qAction(1); act < numQActions; act++ {
		if a.Q[s][act] > bestQ {
			best, bestQ = act, a.Q[s][act]
		}
	}
	return best
}

// Policy returns the greedy action name per state, for inspection.
func (a *QAgent) Policy() map[string]string {
	stateNames := [numQStates]string{"met-slack", "met-tight", "miss-small", "miss-big", "route-fail"}
	actionNames := [numQActions]string{"down-8%", "down-3%", "hold", "up-3%", "up-8%"}
	out := make(map[string]string, numQStates)
	for s := qState(0); s < numQStates; s++ {
		best, bestQ := 0, a.Q[s][0]
		for act := 1; act < int(numQActions); act++ {
			if a.Q[s][act] > bestQ {
				best, bestQ = act, a.Q[s][act]
			}
		}
		out[stateNames[s]] = actionNames[best]
	}
	return out
}
