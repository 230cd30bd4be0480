// Package flow composes synthesis, placement, clock-tree synthesis,
// routing and signoff timing into the SP&R implementation flow that the
// paper's experiments drive.
//
// A flow run is the atomic unit everywhere in the reproduction: the
// noise study of Fig. 3 runs it repeatedly with different seeds, the
// multi-armed bandit of Fig. 7 samples it at different target
// frequencies, the doomed-run corpus of Figs. 9-10 harvests its detailed-
// routing logfiles, and METRICS (Fig. 11) instruments its steps through
// the Observer hook.
package flow

import (
	"context"
	"errors"
	"time"

	"repro/internal/cts"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/sizing"
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
	PlaceMoves    int     // annealing budget per cell, default 60; the placer evaluates half as many proposals
	Partitions    int     // placement partitioning (Fig. 4(b) lever)
	TracksPerEdge float64 // routing supply (default 28)
	RouteEffort   int     // 1..3
	RouteIters    int     // detailed-routing iteration budget (default 20)
	DeratePct     float64 // signoff guardband

	// PlaceWorkers > 0 selects the territory-parallel annealer for the
	// placement stage, with a crew of that size (place.Options.Workers);
	// 0 keeps the historical serial engine and its bit-exact results.
	// Part of the cache key: the engines produce different (equally
	// valid) placements — though every count >= 1 produces the same one.
	PlaceWorkers int
	// RouteTiles > 1 selects the region-sharded parallel global router
	// (route.GlobalOptions.Tiles); 0/1 keeps the serial net order.
	RouteTiles int
	// RouteWorkers caps concurrent region routing when RouteTiles > 1
	// (default: one worker per region, at most GOMAXPROCS). Not part of
	// the cache key — sharded results are identical at every worker
	// count.
	RouteWorkers int

	// StopRouteAfter truncates detailed routing (set by doomed-run
	// policies; 0 = run to completion).
	StopRouteAfter int

	// RecoverArea enables a post-signoff area-recovery pass: speculative
	// downsizing on the incremental signoff timer (sizing.Recover),
	// keeping WNS above RecoverMarginPs. Off by default — it changes the
	// implemented netlist, so experiments opt in explicitly.
	RecoverArea     bool
	RecoverMarginPs float64 // slack floor for recovery (default 5 ps)

	// Speculate enables speculative stage overlap: downstream stages
	// launched on predicted upstream artifacts while the real stage is
	// still running, committed only when the prediction proves exact
	// (see speculate.go). Part of the cache key; committed results are
	// byte-identical to the non-speculative reference.
	Speculate SpecConfig
}

func (o Options) withDefaults() Options {
	if o.TargetFreqGHz <= 0 {
		o.TargetFreqGHz = 0.5
	}
	if o.PlaceMoves <= 0 {
		o.PlaceMoves = 60
	}
	if o.Speculate.Enabled {
		if o.Speculate.TolerancePct <= 0 {
			o.Speculate.TolerancePct = 1
		}
	} else {
		// A disabled config carries no knobs: all non-speculative runs
		// share one canonical key.
		o.Speculate = SpecConfig{}
	}
	return o
}

// Stage option builders, shared verbatim by the real stage bodies and
// the speculative chains so the two paths can never drift apart.

func placeOptions(o Options, n *netlist.Netlist) place.Options {
	return place.Options{
		Seed:        subSeed(o.Seed, 2),
		Moves:       o.PlaceMoves * n.NumCells(),
		Utilization: o.Utilization,
		Partitions:  o.Partitions,
		Workers:     o.PlaceWorkers,
	}
}

func ctsOptions(o Options) cts.Options {
	return cts.Options{Seed: subSeed(o.Seed, 3)}
}

func grouteOptions(o Options) route.GlobalOptions {
	return route.GlobalOptions{
		Seed:          subSeed(o.Seed, 4),
		TracksPerEdge: o.TracksPerEdge,
		Tiles:         o.RouteTiles,
		Workers:       o.RouteWorkers,
	}
}

func drouteOptions(o Options, hook route.IterHook) route.DetailOptions {
	return route.DetailOptions{
		Iterations: o.RouteIters,
		Effort:     o.RouteEffort,
		Seed:       subSeed(o.Seed, 5),
		StopAfter:  o.StopRouteAfter,
		IterHook:   hook,
	}
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
	// Recover is the post-signoff area-recovery result; nil unless
	// Options.RecoverArea is set.
	Recover *sizing.Result

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

	// Stopped is set when a live doomed-run supervisor STOPped the run
	// mid-route: the fields up to and including Route are valid, the
	// signoff fields are zero, and the license the run held was
	// released RouteIters-Route.IterationsRun iterations early.
	Stopped bool
	// Aborted is set when the run was killed by context cancellation or
	// an injected fault; the per-step fields populated before the abort
	// point remain valid.
	Aborted bool
	// FailedStage names the stage a fault or cancellation hit (empty
	// for completed and STOPped runs).
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

// RouteSupervisor is the live doomed-run hook: an Observer that also
// implements it is consulted between detailed-routing rip-up passes and
// can STOP the run while it holds its license (the paper's Fig. 9/10
// MDP card acting in real time instead of grading finished logfiles).
// The internal/doom package provides the mdp.Card-backed implementation.
type RouteSupervisor interface {
	RouteIter(design string, runSeed int64, iter int, drvs []int) route.IterAction
}

// subSeed derives a decorrelated per-step seed (splitmix64 step).
func subSeed(seed int64, step uint64) int64 {
	z := uint64(seed) + step*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

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
// observation, fault injection, the retry attempt number, and the
// hung-stage watchdog.
type RunConfig struct {
	Observer Observer       // step events; may be nil
	Faults   *FaultInjector // deterministic fault schedule; may be nil
	Attempt  int            // retry attempt; fresh fault coins per attempt

	// StageTimeout arms a per-stage watchdog: a stage that has not
	// completed within this deadline is reaped — its context is
	// cancelled, its goroutine abandoned, and the run aborts with a
	// *FaultError of kind FaultHang, exactly as a flow manager kills a
	// wedged tool process to get its license back. Zero disables the
	// watchdog and stages run inline on the caller's goroutine.
	StageTimeout time.Duration

	// Oracle supplies (and learns) upstream-stage predictions for
	// speculative overlap. Observed on every run when non-nil;
	// consulted for predictions only when Options.Speculate.Enabled.
	Oracle SpecOracle
	// SpecSlots caps concurrent speculative chains process-wide.
	// Speculation only ever takes a free slot — nil means unlimited.
	SpecSlots *sched.Slots
	// SpecReport, when non-nil, receives the run's speculation
	// accounting after a successful (or STOPped) run. Aborted runs
	// report nothing, mirroring what campaigns cache and journal.
	SpecReport func(SpecStats)
}

// endStageSpan closes a stage span with the outcome the stage's error
// implies: nil = ok, a watchdog/hang fault = hung, any other injected
// fault = failed, context death = aborted.
func endStageSpan(sp *trace.Span, err error) {
	if sp == nil {
		return
	}
	var fe *FaultError
	switch {
	case err == nil:
		sp.End()
	case errors.As(err, &fe):
		sp.Set("fault", fe.Kind)
		if fe.Kind == FaultHang {
			sp.EndWith(trace.Hung)
		} else {
			sp.EndWith(trace.Failed)
		}
	default:
		sp.EndErr(err)
	}
}

// RunCfg executes the full flow under ctx with the given run machinery.
// Each stage runs in three steps: a boundary gate (context check plus
// injected crash/license faults), the stage body under the watchdog (see
// RunConfig.StageTimeout), and a commit that publishes the stage's
// results into the Result and emits its step record. The commit runs on
// the caller's goroutine only after the body is known to have finished,
// so a reaped stage can never race with the caller: an abandoned body
// writes only stage-local state that nobody reads.
//
// Cancellation is checked at every stage boundary and between
// detailed-routing rip-up passes, so a doomed-run STOP or a campaign
// teardown reclaims the run's license within one iteration instead of
// after the full run: the partial Result has Aborted set and ctx.Err() is
// returned. rc.Faults (which may be nil) is consulted at the same
// boundaries with the run seed, the stage about to execute and
// rc.Attempt; an injected crash or license drop aborts the run with a
// *FaultError, and the campaign engine's retry loop increments Attempt so
// a re-run draws fresh fault coins. If rc.Observer implements
// RouteSupervisor, its verdicts can STOP the run mid-route; a STOPped run
// returns (res, nil) with res.Stopped set and no signoff fields.
//
// When tracing is armed (trace.Enable) the run emits a "flow.run" span
// with one "flow.<stage>" child per stage, each carrying the stage
// outcome (ok / hung / failed / aborted) — the per-stage latency
// histograms and the flow layer of the Chrome trace both come from
// here.
func RunCfg(ctx context.Context, design *netlist.Netlist, opts Options, rc RunConfig) (res *Result, err error) {
	opts = opts.withDefaults()
	ctx, runSpan := trace.Start(ctx, "flow.run")
	if runSpan != nil {
		runSpan.Set("design", design.Name)
		runSpan.SetInt("seed", opts.Seed)
		runSpan.SetInt("attempt", int64(rc.Attempt))
		defer func() {
			if err == nil && res != nil && res.Stopped {
				runSpan.EndWith(trace.Stopped)
				return
			}
			if err != nil && res != nil && res.FailedStage != "" {
				runSpan.Set("failed_stage", res.FailedStage)
			}
			endStageSpan(runSpan, err)
		}()
	}
	res = &Result{Options: opts}
	// The returned netlist must be value-identical to its serialized
	// round-trip (campaign journals replay results and compare them to
	// recomputed ones), so drop any in-memory placement cache the run's
	// kernels left behind before handing the result out.
	defer func() {
		if res != nil && res.Netlist != nil {
			res.Netlist.InvalidatePlacement()
		}
	}()
	obs := rc.Observer
	emit := func(step string, metrics map[string]float64, series []float64) {
		if obs != nil {
			obs.OnStep(StepRecord{
				Design: design.Name, RunSeed: opts.Seed, Step: step,
				Options: opts, Metrics: metrics, Series: series,
			})
		}
	}
	// The live doomed-run hook (consulted between detailed-routing
	// rip-up passes); resolved before speculation launches because a
	// supervised run must keep detailed routing on the real path.
	var hook route.IterHook
	if sup, ok := obs.(RouteSupervisor); ok {
		hook = func(iter int, drvs []int) route.IterAction {
			return sup.RouteIter(design.Name, opts.Seed, iter, drvs)
		}
	}
	// Speculation: draw predictions and launch downstream chains before
	// the first real stage, so the overlap covers synth and place. The
	// oracle observes every run (learning is free); predictions are only
	// consulted when the option point asks for them.
	var oracleFP uint64
	if rc.Oracle != nil {
		oracleFP = design.Fingerprint()
	}
	spec := rc.newSpecRun(ctx, opts, oracleFP)
	if spec != nil {
		spec.launch(hook != nil)
		defer spec.close()
	}
	defer func() {
		if spec != nil && rc.SpecReport != nil && err == nil && res != nil {
			rc.SpecReport(spec.stats)
		}
	}()
	// stage gates entry (a dead context or an injected fault kills the
	// run at the boundary, where a real flow manager would reap the tool
	// process and release its license), runs body under the watchdog,
	// and on completion commits on this goroutine. body must write only
	// state that commit publishes — never res directly — so that an
	// abandoned hung stage cannot race with the caller.
	stage := func(name string, body func(sctx context.Context), commit func()) error {
		stageCtx, ssp := trace.Start(ctx, "flow."+name)
		fail := func(err error) error {
			res.Aborted = true
			res.FailedStage = name
			endStageSpan(ssp, err)
			return err
		}
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		if err := rc.Faults.Check(opts.Seed, name, rc.Attempt); err != nil {
			return fail(err)
		}
		completed := false
		// The body runs under the span-carrying context so work it spawns
		// (detailed-route iterations) nests under the stage span.
		gerr := sched.Guard(stageCtx, rc.StageTimeout, func(sctx context.Context) {
			if !rc.Faults.Hang(sctx, opts.Seed, name, rc.Attempt) {
				return // wedged "tool" died with its context, never computing
			}
			body(sctx)
			completed = true
		})
		if gerr != nil {
			// Watchdog reap: the stage missed its deadline. Surface it as
			// a fault so the campaign retry path treats a hung tool like a
			// crashed one (the retry draws a fresh hang coin).
			ssp.Set("watchdog", "reaped")
			return fail(&FaultError{Stage: name, Kind: FaultHang})
		}
		if !completed {
			// The body never ran: the injected wedge was released by run
			// cancellation (Guard only cancels sctx after it returns, so a
			// nil gerr means the parent context died). Report whichever
			// cause is present; an unbounded hang with no watchdog and no
			// cancellation would still be blocked above.
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			return fail(&FaultError{Stage: name, Kind: FaultHang})
		}
		commit()
		ssp.End()
		return nil
	}

	// Synthesis.
	var n *netlist.Netlist
	var syn synth.Result
	if err := stage("synth", func(context.Context) {
		syn = synth.Run(design, synth.Options{
			TargetFreqGHz: opts.TargetFreqGHz,
			Effort:        opts.SynthEffort,
			Seed:          subSeed(opts.Seed, 1),
			MaxFanout:     opts.MaxFanout,
		})
	}, func() {
		res.Synth = syn
		n = syn.Netlist
		res.Netlist = n
		res.Cells = n.NumCells()
		res.RuntimeProxy += float64(syn.Passes) * float64(n.NumCells()) / 1000
		emit("synth", map[string]float64{
			"area":    syn.AreaUm2,
			"wns":     syn.WNSPs,
			"cells":   float64(n.NumCells()),
			"upsized": float64(syn.Upsized),
			"buffers": float64(syn.BuffersAdded),
		}, nil)
	}); err != nil {
		return res, err
	}
	spec.judgeSynth(syn)
	if rc.Oracle != nil && ctx.Err() == nil {
		rc.Oracle.ObserveSynth(oracleFP, opts, syn)
	}

	// Provenance of the placement this run is about to compute: the
	// committed post-synth fingerprint (coordinates still zero) plus the
	// exact annealer options. Computed once, pre-place, and used both to
	// verify directly-committable predictions and to stamp the oracle's
	// observation.
	var prov PlaceProvenance
	if rc.Oracle != nil {
		prov = placeProv(n, opts)
	}

	// Placement, strongest adoption first. A verbatim place prediction
	// whose provenance equals this run's commits outright — determinism
	// makes it certain, so the dominant stage is skipped, not just
	// overlapped. Failing that, a judged-exact synth prediction means
	// the speculative placement (started before synthesis) ran on
	// identical content: the stage body then just waits for it and
	// copies its coordinates into the real netlist instead of annealing
	// again.
	var pl place.Result
	placeBody := func(context.Context) {
		pl = place.Place(n, placeOptions(opts, n))
	}
	switch {
	case spec.adoptPredicted(prov):
		placeBody = spec.predictedPlaceBody(&pl, n)
	case spec.adoptPlace():
		placeBody = spec.placeBody(&pl, n)
	}
	if err := stage("place", placeBody, func() {
		res.Place = pl
		res.RuntimeProxy += float64(pl.RuntimeProxy) / 50000
		emit("place", map[string]float64{
			"hpwl":         pl.HPWLUm,
			"initial_hpwl": pl.InitialHPWLUm,
			"width":        pl.Width,
		}, nil)
	}); err != nil {
		return res, err
	}
	spec.judgePlace(pl, n)
	// The ctx guard matters on the speculative path: a run cancelled
	// while waiting for its speculative placement commits a zero stage
	// result before the next boundary aborts it, and the oracle must not
	// learn that half-built artifact as this point's truth.
	if rc.Oracle != nil && ctx.Err() == nil {
		rc.Oracle.ObservePlace(oracleFP, opts, pl, n, prov)
	}

	// Clock-tree synthesis. A judged-exact place prediction unlocks the
	// whole speculative downstream chain; each of the next three stages
	// adopts its precomputed result as it lands.
	var ct cts.Result
	ctsBody := func(context.Context) {
		ct = cts.Synthesize(n, ctsOptions(opts))
	}
	if spec.adoptChain() {
		ctsBody = spec.ctsBody(&ct, n)
	}
	if err := stage("cts", ctsBody, func() {
		res.CTS = ct
		res.RuntimeProxy += float64(ct.Buffers) / 100
		emit("cts", map[string]float64{
			"skew":    ct.MaxSkewPs,
			"latency": ct.LatencyPs,
			"buffers": float64(ct.Buffers),
		}, nil)
	}); err != nil {
		return res, err
	}

	// Global routing.
	var gr *route.GlobalResult
	grouteBody := func(context.Context) {
		gr = route.GlobalRoute(n, grouteOptions(opts))
	}
	if spec.adoptChain() {
		grouteBody = spec.grouteBody(&gr, n)
	}
	if err := stage("groute", grouteBody, func() {
		res.Global = gr
		res.RuntimeProxy += gr.WirelengthUm / 5000
		emit("groute", map[string]float64{
			"wirelength":   gr.WirelengthUm,
			"overflow":     gr.OverflowTotal,
			"overflowPeak": gr.OverflowPeak,
			"hotspots":     gr.HotspotFrac,
			"margin":       gr.CongestionMargin(),
		}, nil)
	}); err != nil {
		return res, err
	}

	// Detailed routing, with the live doomed-run hook (resolved above)
	// when the observer supervises. The hook sees iterations as they
	// complete; its STOP truncates the run in place, which is where the
	// compute reclaim of Figs. 9-10 actually happens. The body routes
	// under the stage context so a watchdog reap aborts the router
	// within one rip-up pass instead of waiting out the iteration
	// budget. A speculative chain never routes under supervision, so on
	// supervised runs the adoption body always computes here — with the
	// hook.
	var dr *route.DetailResult
	drouteBody := func(sctx context.Context) {
		dr = route.DetailRouteCtx(sctx, gr, drouteOptions(opts, hook))
	}
	if spec.adoptChain() {
		drouteBody = spec.drouteBody(&dr, &gr, hook)
	}
	if err := stage("droute", drouteBody, func() {
		res.Route = dr
		res.RuntimeProxy += dr.RuntimeProxy
		series := make([]float64, len(dr.DRVs))
		for i, d := range dr.DRVs {
			series[i] = float64(d)
		}
		drouteMetrics := map[string]float64{
			"drvs":       float64(dr.Final),
			"iterations": float64(dr.IterationsRun),
		}
		if dr.StopIter > 0 {
			drouteMetrics["stopped_at"] = float64(dr.StopIter)
			drouteMetrics["saved_iters"] = float64(dr.IterationsBudget - dr.IterationsRun)
		}
		emit("droute", drouteMetrics, series)
	}); err != nil {
		return res, err
	}
	if res.Route.Aborted {
		res.Aborted = true
		res.FailedStage = "droute"
		return res, ctx.Err()
	}
	if res.Route.StopIter > 0 {
		// Live STOP: the run is terminated here, exactly as the paper's
		// policy kills the tool to reclaim its license. Headline fields
		// that exist are filled; signoff never happens.
		res.Stopped = true
		res.AreaUm2 = n.Area() + res.CTS.AreaUm2
		res.PowerNW = n.Leakage() + res.CTS.PowerNW
		res.RouteOK = false
		res.Met = false
		return res, nil
	}

	// Signoff timing with CTS skews.
	var sign *sta.Report
	if err := stage("sta", func(context.Context) {
		sign = sta.Analyze(n, sta.Config{
			Engine:    sta.Signoff,
			SI:        true,
			ClockSkew: res.CTS.SkewPs,
			DeratePct: opts.DeratePct,
		})
	}, func() {
		res.Sign = sign
		res.RuntimeProxy += sign.CostUnits
		emit("sta", map[string]float64{
			"wns":     sign.WNSPs,
			"tns":     sign.TNSPs,
			"maxfreq": sign.MaxFreqGHz,
		}, nil)
	}); err != nil {
		return res, err
	}

	// Optional area recovery on the incremental signoff timer: downsize
	// whatever the flow left oversized while the margin holds, then
	// refresh the signoff report if anything changed.
	if opts.RecoverArea {
		signCfg := sta.Config{
			Engine:    sta.Signoff,
			SI:        true,
			ClockSkew: res.CTS.SkewPs,
			DeratePct: opts.DeratePct,
		}
		var rec sizing.Result
		var resigned *sta.Report
		if err := stage("recover", func(context.Context) {
			rec = sizing.Recover(n, sizing.Config{
				Seed:          subSeed(opts.Seed, 6),
				Engine:        &signCfg,
				SlackMarginPs: opts.RecoverMarginPs,
			})
			if rec.Downsized > 0 {
				resigned = sta.Analyze(n, signCfg)
			}
		}, func() {
			res.Recover = &rec
			// Propagation work is measured in full-Analyze equivalents;
			// convert to runtime via the signoff run's cost.
			res.RuntimeProxy += rec.TimerWorkEquiv * res.Sign.CostUnits
			if resigned != nil {
				res.Sign = resigned
			}
			emit("recover", map[string]float64{
				"downsized":  float64(rec.Downsized),
				"area":       rec.AreaAfter,
				"wns":        res.Sign.WNSPs,
				"timer_work": rec.TimerWorkEquiv,
			}, nil)
		}); err != nil {
			return res, err
		}
	}

	res.AreaUm2 = n.Area() + res.CTS.AreaUm2
	res.PowerNW = n.Leakage() + res.CTS.PowerNW
	res.WNSPs = res.Sign.WNSPs
	res.MaxFreqGHz = res.Sign.MaxFreqGHz
	res.TimingMet = res.Sign.WNSPs >= 0
	res.RouteOK = res.Route.Success
	res.Met = res.TimingMet && res.RouteOK
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
