// Package repro reproduces "Reducing Time and Effort in IC
// Implementation: A Roadmap of Challenges and Solutions" (A. B. Kahng,
// DAC 2018) as a working system: a simulated RTL-to-GDSII SP&R flow and
// every technique the paper describes on top of it — multi-armed-bandit
// tool orchestration, MDP doomed-run prediction, go-with-the-winners and
// adaptive multistart, ML analysis correlation, implementation-noise
// characterization, the METRICS collection/mining infrastructure, and
// the ITRS design-cost roadmap model.
//
// This file is the facade: the small, stable API a downstream user
// needs. The per-figure experiment harnesses live in figs_*.go and
// ext_*.go; the full machinery is under internal/.
package repro

import (
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/cellib"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netlist"
)

// Library is the standard-cell library type used across the flow.
type Library = cellib.Library

// Design is a gate-level netlist.
type Design = netlist.Netlist

// DesignSpec parameterizes the synthetic design generator.
type DesignSpec = netlist.Spec

// FlowOptions are the SP&R flow knobs (one point of the option tree).
type FlowOptions = flow.Options

// FlowResult is a complete SP&R run outcome.
type FlowResult = flow.Result

// Constraints is the QOR acceptance box (area/power).
type Constraints = flow.Constraints

// DefaultLibrary returns the 14nm-class standard-cell library.
func DefaultLibrary() *Library { return cellib.Default14nm() }

// NewDesign generates a synthetic design from a spec.
func NewDesign(lib *Library, spec DesignSpec) *Design { return netlist.Generate(lib, spec) }

// PulpinoProxy returns the PULPino-like proxy design spec (the paper's
// Fig. 3 / Fig. 7 testcase, scaled for laptop runtime).
func PulpinoProxy(seed int64) DesignSpec { return netlist.PulpinoProxy(seed) }

// EmbeddedCPU returns the embedded-CPU proxy spec (doomed-run test
// corpus source).
func EmbeddedCPU(seed int64) DesignSpec { return netlist.EmbeddedCPU(seed) }

// Artificial returns the artificial-layout spec (doomed-run training
// corpus source).
func Artificial(seed int64) DesignSpec { return netlist.Artificial(seed) }

// TinyDesign returns a minimal spec for experimentation and tests.
func TinyDesign(seed int64) DesignSpec { return netlist.Tiny(seed) }

// RunFlow executes the full SP&R flow (synthesis, placement, CTS,
// global+detailed routing, signoff STA) on a design.
func RunFlow(design *Design, opts FlowOptions) *FlowResult { return flow.Run(design, opts) }

// Robot is the Stage-1 no-human-in-the-loop flow executor.
type Robot = core.Robot

// SearchConfig configures the Stage-2 orchestrated bandit search.
type SearchConfig = core.SearchConfig

// SearchResult is the orchestrated search outcome.
type SearchResult = core.SearchResult

// Search runs N concurrent robot engineers over flow targets under a
// license pool, steered by a multi-armed bandit (the Fig. 7 method).
func Search(design *Design, base FlowOptions, cons Constraints, cfg SearchConfig) (*SearchResult, error) {
	return core.Search(design, base, cons, cfg)
}

// FlowCache memoizes flow results by (design, options) content; share
// one across studies that revisit the same option points.
type FlowCache = campaign.Cache

// NewFlowCache creates a flow-result cache (capacity <= 0 = unbounded).
func NewFlowCache(capacity int) *FlowCache { return campaign.NewCache(capacity) }

// workers is the package-wide concurrent-run limit for the experiment
// harnesses (0 = one worker per CPU).
var workers atomic.Int64

// SetWorkers caps concurrent runs in the experiment harnesses (n <= 0
// restores the default: one worker per CPU). Every harness draws its
// per-run seeds deterministically before fanning out, so the worker
// count changes wall-clock time only, never results.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// WorkerCount reports the configured limit (0 = one per CPU).
func WorkerCount() int { return int(workers.Load()) }
