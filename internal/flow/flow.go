// Package flow composes synthesis, placement, clock-tree synthesis,
// routing and signoff timing into the SP&R implementation flow that the
// paper's experiments drive.
//
// A flow run is the atomic unit everywhere in the reproduction: the
// multi-armed bandit of Fig. 7 samples it at different target
// frequencies, the doomed-run corpus of Figs. 9-10 harvests its detailed-
// routing logfiles, and METRICS (Fig. 11) instruments its steps through
// the Observer hook.
package flow

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cts"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/num"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Options is one point in the flow-option tree of the paper's Fig. 5(a):
// each field is a knob a human engineer (or a robot) must choose.
type Options struct {
	TargetFreqGHz float64 // timing target (default 0.5)
	Seed          int64   // run seed; all per-step noise derives from it

	SynthEffort   int     // 1..3
	MaxFanout     int     // synthesis buffering threshold
	Utilization   float64 // placement utilization
	PlaceMoves    int     // annealing budget per cell, default 60; after its global step the placer evaluates a twelfth as many proposals
	Partitions    int     // placement partitioning (Fig. 4(b) lever)
	TracksPerEdge float64 // routing supply (default 28)
	RouteEffort   int     // 1..3
	RouteIters    int     // detailed-routing iteration budget (default 20)
	DeratePct     float64 // signoff guardband

	// Deprecated: PlaceWorkers selected the territory-parallel annealer,
	// which is gone; Run and Key ignore it. It stays until the benchmark
	// harness stops setting it (ROADMAP item 1(c)).
	PlaceWorkers int
	// Deprecated: RouteTiles selected the region-sharded global router,
	// which is gone; Run and Key ignore it, as PlaceWorkers.
	RouteTiles int
}

func (o Options) withDefaults() Options {
	if o.TargetFreqGHz <= 0 {
		o.TargetFreqGHz = 0.5
	}
	if o.PlaceMoves <= 0 {
		o.PlaceMoves = 60
	}
	return o
}

// Result is the outcome of one flow run.
type Result struct {
	Options Options

	// Per-step results.
	Synth  synth.Result
	Place  place.Result
	CTS    cts.Result
	Global *route.GlobalResult
	Route  *route.DetailResult
	Sign   *sta.Report

	// Headline QOR.
	AreaUm2    float64 // cell area + clock buffers
	PowerNW    float64 // leakage + clock power
	WNSPs      float64 // signoff WNS
	MaxFreqGHz float64 // signoff-achievable frequency
	TimingMet  bool
	RouteOK    bool
	Met        bool // TimingMet && RouteOK

	// RuntimeProxy is the simulated TAT of the whole run.
	RuntimeProxy float64

	// Cells is the implemented design's instance count (Netlist.NumCells
	// as of synthesis): the one netlist scalar readers of a recorded
	// result want.
	Cells int

	// Netlist is the implemented design (sized, placed). It is an
	// artifact: set on a result a flow run just returned (and on the
	// campaign's in-process cache hits of one), nil on a result replayed
	// from a journal or fetched from a remote store — see Summary.
	Netlist *netlist.Netlist

	// Aborted is set when the run was killed by context cancellation or
	// the stage watchdog; the per-step fields populated before the abort
	// point remain valid.
	Aborted bool
	// FailedStage names the stage a reap or cancellation hit (empty for
	// completed runs).
	FailedStage string
}

// Summary returns the part of the result a campaign record keeps: a
// shallow copy without the six per-instance artifacts (Netlist,
// Synth.Netlist — the same netlist — Global.Demand, CTS.SkewPs,
// Sign.Endpoints, Sign.CriticalPath). Every scalar, the DRV series and
// CongestionMargin() read the same on it. A flow run is a pure function
// of (design, options), so whoever needs an artifact reruns the point.
func (r *Result) Summary() *Result {
	s := *r
	s.Netlist, s.Synth.Netlist, s.CTS.SkewPs = nil, nil, nil
	if r.Global != nil {
		g := *r.Global
		g.Demand = nil
		s.Global = &g
	}
	if r.Sign != nil {
		s.Sign = r.Sign.Summary()
	}
	return &s
}

// StepRecord is the per-step measurement event delivered to observers —
// the METRICS "wrapper/API" data of Fig. 11.
type StepRecord struct {
	Design  string
	RunSeed int64
	Step    string // "synth", "place", "cts", "groute", "droute", "sta"
	Options Options
	Metrics map[string]float64
	// Series carries per-iteration data for steps that have it (the
	// detailed router's DRV-vs-iteration logfile).
	Series []float64
}

// Observer receives step records as the flow executes. Implementations
// must not retain the record's maps across calls if they mutate them.
type Observer interface {
	OnStep(rec StepRecord)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(rec StepRecord)

// OnStep calls f(rec).
func (f ObserverFunc) OnStep(rec StepRecord) { f(rec) }

// subSeed derives a decorrelated per-step seed (splitmix64 step).
func subSeed(seed int64, step uint64) int64 { return num.Mix(seed, step-1) }

// Run executes the full flow. The input design is not modified.
func Run(design *netlist.Netlist, opts Options) *Result {
	return RunObserved(design, opts, nil)
}

// RunObserved executes the full flow, reporting each step to obs (which
// may be nil). It cannot be cancelled; use RunCfg for that.
func RunObserved(design *netlist.Netlist, opts Options, obs Observer) *Result {
	res, _ := RunCfg(context.Background(), design, opts, RunConfig{Observer: obs}) //nolint:errcheck // background ctx never cancels
	return res
}

// RunConfig bundles the run-level machinery around a flow execution:
// observation and the hung-stage watchdog.
type RunConfig struct {
	Observer Observer // step events; may be nil

	// StageTimeout arms a per-stage watchdog: a stage that has not
	// completed within this deadline is reaped — its context is
	// cancelled, its goroutine abandoned, and the run aborts with an
	// error wrapping sched.ErrHung, exactly as a flow manager kills a
	// wedged tool process to get its license back. Zero disables the
	// watchdog and stages run inline on the caller's goroutine.
	StageTimeout time.Duration

	// Prefixes, when non-nil, is the memo through which runs of one design
	// whose synthesis resizes nothing share everything but their endpoint
	// slack (see Prefixes). Nil computes every stage.
	Prefixes *Prefixes
}

// endStageSpan closes a stage span with the outcome the stage's error
// implies: nil = ok, a watchdog reap = hung, context death = aborted.
func endStageSpan(sp *trace.Span, err error) {
	if errors.Is(err, sched.ErrHung) {
		sp.EndWith(trace.Hung)
		return
	}
	sp.EndErr(err)
}

// RunCfg executes the full flow under ctx with the given run machinery:
// one pass over the stage table (stages.go). Each stage runs in three
// steps: a boundary gate (a context check), the stage's compute under
// the watchdog (see RunConfig.StageTimeout), and its commit, which
// publishes the stage's artifact into the Result and emits its step
// record. The commit runs on the caller's goroutine only after the
// compute is known to have finished, so a reaped stage can never race
// with the caller: an abandoned compute writes only the run's artifact
// set and the netlist under construction, and a reaped run returns neither.
//
// Cancellation is checked at every stage boundary, between annealing
// move blocks and between detailed-routing rip-up passes, so a campaign
// teardown reclaims the run's license within one iteration instead of
// after the full run: the partial Result has Aborted set, holds the
// stages committed before the one cancellation hit (a stage cut short is
// never committed), and ctx.Err() is returned. A watchdog reap ends the
// run the same way, with an error wrapping sched.ErrHung, but its partial
// Result holds no netlist (Netlist and Synth.Netlist are nil).
//
// With RunConfig.Prefixes set, a run looks its post-synthesis prefix up
// before synthesis. On a hit whose synthesis would resize nothing, every
// stage the prefix supplies skips its compute (the gate and the commit run
// as ever); otherwise the run computes every stage and, if its synthesis
// resized no cell, stores its prefix once it has finished, so an aborted
// run stores nothing.
//
// When tracing is armed (trace.Enable) the run emits a "flow.run" span
// with one "flow.<stage>" child per stage, each carrying the stage
// outcome (ok / hung / aborted), and "reused" on a stage whose compute a
// prefix supplied — the per-stage latency
// histograms and the flow layer of the Chrome trace both come from
// here.
func RunCfg(ctx context.Context, design *netlist.Netlist, opts Options, rc RunConfig) (res *Result, err error) {
	opts = opts.withDefaults()
	ctx, runSpan := trace.Start(ctx, "flow.run")
	runSpan.Set("design", design.Name)
	runSpan.SetInt("seed", opts.Seed)
	res = &Result{Options: opts}
	a := &artifacts{opts: opts, n: design}
	obs := rc.Observer
	var pk prefixKey // the run's prefix key, when it has a memo
	if rc.Prefixes != nil {
		pk = prefixKey{design: design, opts: opts.PrefixOptions()}
		if p := rc.Prefixes.lookup(pk); p != nil && a.adopt(p) {
			metrics.Add("flow.prefix.reused", 1)
		}
	}
	defer func() {
		// A reaped stage's abandoned compute may still be writing the
		// netlist, so a reaped run returns none, as a replayed result
		// holds none.
		if err != nil && errors.Is(err, sched.ErrHung) {
			res.Netlist, res.Synth.Netlist = nil, nil
		}
		if res.FailedStage != "" {
			runSpan.Set("failed_stage", res.FailedStage)
		}
		endStageSpan(runSpan, err)
	}()

	for i := range stages {
		st := &stages[i]
		// The gate: a dead context kills the run at the boundary, where a
		// real flow manager would reap the tool process and release its
		// license.
		stageCtx, ssp := trace.Start(ctx, "flow."+st.name)
		fail := func(err error) (*Result, error) {
			res.Aborted = true
			res.FailedStage = st.name
			endStageSpan(ssp, err)
			return res, err
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if a.supplied(i) {
			ssp.Set("reused", "true")
		} else {
			// The compute runs under the span-carrying context so work it
			// spawns (detailed-route iterations) nests under the stage span.
			gerr := sched.Guard(stageCtx, rc.StageTimeout, func(sctx context.Context) {
				st.compute(sctx, a)
			})
			if gerr != nil {
				// Watchdog reap: the stage missed its deadline.
				ssp.Set("watchdog", "reaped")
				return fail(fmt.Errorf("flow: stage %s: %w", st.name, gerr))
			}
			// Guard cancels sctx only after it returns, so with a nil gerr a
			// dead sctx means a dead run: its cancellation cut the stage
			// short (an anneal polls it, the router checks it between rip-up
			// passes). A stage the run's context cut short is never
			// committed.
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
		}
		metrics, series := st.commit(res, a)
		if obs != nil {
			obs.OnStep(StepRecord{
				Design: design.Name, RunSeed: opts.Seed, Step: st.name,
				Options: opts, Metrics: metrics, Series: series,
			})
		}
		ssp.End()
	}

	res.AreaUm2 = a.n.Area() + res.CTS.AreaUm2
	res.PowerNW = a.n.Leakage() + res.CTS.PowerNW
	res.WNSPs = res.Sign.WNSPs
	res.MaxFreqGHz = res.Sign.MaxFreqGHz
	res.TimingMet = res.Sign.WNSPs >= 0
	res.RouteOK = res.Route.Success
	res.Met = res.TimingMet && res.RouteOK
	if pk.design != nil && !a.reused && a.fast != nil {
		rc.Prefixes.store(pk, a)
	}
	return res, nil
}

// Constraints is a QOR acceptance box: the "given power and area
// constraints" of the paper's Fig. 7 caption.
type Constraints struct {
	MaxAreaUm2 float64 // 0 = unconstrained
	MaxPowerNW float64 // 0 = unconstrained
}

// Satisfied reports whether a flow result meets timing, routes cleanly,
// and fits the constraint box.
func (c Constraints) Satisfied(r *Result) bool {
	if !r.Met {
		return false
	}
	if c.MaxAreaUm2 > 0 && r.AreaUm2 > c.MaxAreaUm2 {
		return false
	}
	if c.MaxPowerNW > 0 && r.PowerNW > c.MaxPowerNW {
		return false
	}
	return true
}
