// Package core operationalizes the paper's roadmap: the four stages of
// ML insertion into IC implementation (Fig. 5(b)) built on top of every
// substrate in this repository.
//
//	Stage 1 — mechanize/automate: Robot, a 24/7 "robot engineer" that
//	  drives the SP&R flow to completion with expert-system retries.
//	Stage 2 — orchestration of search: Search, N concurrent robots
//	  sampling the flow-option tree under a license pool, steered by a
//	  multi-armed bandit (the Fig. 7 methodology).
//	Stage 3 — pruning via predictors: the doomed-run MDP strategy card
//	  of Figs. 9-10 lives in internal/mdp (mdp.Card.Evaluate grades it
//	  post hoc, the Table 1 row) and acts on live router runs through
//	  internal/doom (doom.Supervisor, the doomed-live row).
//	Stage 4 — learning loop: QAgent, a Q-learning flow tuner that learns
//	  the back-off/push-up policy from run feedback (the rl row); the
//	  METRICS run → record → warehouse.Suggest loop is the fig11 row.
//
// The package also models the flow-option trajectory tree of Fig. 5(a)
// and the margin/predictability feedback loop of Fig. 4.
package core

import (
	"repro/internal/flow"
	"repro/internal/netlist"
)

// Robot is the Stage-1 robot engineer: it executes a flow target to
// completion without a human, applying the trial-and-error recovery
// rules an expert would (back off frequency on timing failure, add
// routing effort and whitespace on congestion failure).
type Robot struct {
	Design      *netlist.Netlist
	Base        flow.Options
	Constraints flow.Constraints
	MaxAttempts int // default 6
}

// Attempt is one flow execution the robot made.
type Attempt struct {
	Options flow.Options
	Result  *flow.Result
	Reason  string // why the next attempt was changed ("" if final)
}

// RobotResult is the robot's overall outcome.
type RobotResult struct {
	Succeeded    bool
	Final        *flow.Result
	Attempts     []Attempt
	RuntimeProxy float64
}

// Execute runs the robot until success or the attempt budget expires.
func (r Robot) Execute() RobotResult {
	maxAttempts := r.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 6
	}
	opts := r.Base
	var out RobotResult
	for attempt := 0; attempt < maxAttempts; attempt++ {
		opts.Seed = r.Base.Seed + int64(attempt)*7919
		res := flow.Run(r.Design, opts)
		out.RuntimeProxy += res.RuntimeProxy
		a := Attempt{Options: opts, Result: res}
		if r.Constraints.Satisfied(res) {
			out.Attempts = append(out.Attempts, a)
			out.Succeeded = true
			out.Final = res
			return out
		}
		// Expert-system recovery rules.
		switch {
		case !res.RouteOK && res.Global.OverflowTotal > 0:
			a.Reason = "congestion: +route effort, -utilization"
			if opts.RouteEffort < 3 {
				opts.RouteEffort++
			}
			if opts.Utilization == 0 {
				opts.Utilization = 0.55
			} else if opts.Utilization > 0.4 {
				opts.Utilization -= 0.05
			}
		case !res.TimingMet:
			// Back off toward the measured capability: signoff
			// reported the achievable frequency, so aim just under
			// it rather than creeping down 5% at a time.
			a.Reason = "timing: retarget below measured fmax, +synth effort"
			next := res.Options.TargetFreqGHz * 0.95
			if res.MaxFreqGHz > 0 && res.MaxFreqGHz*0.97 < next {
				next = res.MaxFreqGHz * 0.97
			}
			opts.TargetFreqGHz = next
			if opts.SynthEffort < 3 {
				opts.SynthEffort++
			}
		default:
			a.Reason = "constraints: -3% target"
			opts.TargetFreqGHz = res.Options.TargetFreqGHz * 0.97
		}
		out.Attempts = append(out.Attempts, a)
		out.Final = res
	}
	return out
}
