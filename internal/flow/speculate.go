// Speculative stage overlap: while a real upstream stage (synth, place)
// is still running, a chain of the stages downstream of it (place; or
// cts→groute→droute) runs concurrently on a *predicted* upstream
// artifact — the same stage table entries the real run drives, on the
// chain's own artifact set. When the real result lands it is judged
// against the prediction, and each real stage then adopts the chain's
// artifact or computes its own (adoptOrCompute).
//
// Determinism is non-negotiable and holds by construction:
//
//   - A speculative stage is adopted only when the predicted upstream
//     artifact's content fingerprint equals the real one's. Every stage
//     is a pure function of (netlist content, Options), so work computed
//     from a fingerprint-equal artifact is byte-identical to what the
//     real stage would have produced — commit changes wall-clock, never
//     the Result.
//   - The commit decision itself is a pure function of (prediction,
//     real stage result, Options.Speculate) — never of timing, worker
//     count, or which goroutine finished first. A prediction that is
//     within scalar tolerance but not artifact-exact is a "near hit":
//     recorded in the accuracy histograms, still discarded.
//   - Adopted or computed, every stage passes the same gate, watchdog
//     and commit of RunCfg's loop as on a non-speculative run, so fault
//     coins, watchdog deadlines, emit order and commit order are
//     identical either way.
//
// Speculative work only ever takes a free sched.Slots slot (never
// queues) and so cannot delay the real stages it is trying to hide
// behind.
package flow

import (
	"context"
	"math"
	"strconv"

	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sched"
	"repro/internal/synth"
	"repro/internal/trace"
)

// SpecConfig is the speculation knob of an option point. It is part of
// the cache key: a speculative and a non-speculative run commit
// identical stage results, but the configuration is still an input a
// campaign must not conflate (Result.Options records it).
type SpecConfig struct {
	// Enabled turns speculative stage overlap on. The run also needs an
	// oracle (RunConfig.Oracle); without one the flag is inert.
	Enabled bool
	// TolerancePct is the commit tolerance on the predicted stage
	// scalars (relative error, percent; default 1). Commit additionally
	// requires artifact-fingerprint equality — tolerance is the policy
	// pre-filter that classifies near hits for the accuracy histograms
	// and lets operators study looser predictors without risking QoR.
	TolerancePct float64
}

// SynthPrediction is an oracle's guess at a run's synthesis outcome.
// Synth.Netlist is the predicted post-synth artifact; it is owned by
// the oracle and treated as read-only (the engine clones before
// mutating).
type SynthPrediction struct {
	Synth synth.Result
	// ID names the prediction's provenance (predictor version + source
	// key) for spans and journaled hit/miss accounting.
	ID string
}

// PlacePrediction is an oracle's guess at a run's placement outcome:
// the predicted placed artifact plus the stage scalars.
type PlacePrediction struct {
	Place place.Result
	// Netlist is the predicted placed artifact (oracle-owned,
	// read-only).
	Netlist *netlist.Netlist
	ID      string
	// Prov, when nonzero, asserts that (Place, Netlist) is a verbatim
	// observation of a real placement annealed from these upstream
	// inputs, stored unmodified. The engine verifies applicability —
	// provenance equality against the committed synth output — before
	// committing the pair outright without re-annealing; the pair's
	// integrity under a nonzero Prov is the oracle's contract.
	// Estimate-grade predictions (learned models, cross-seed family
	// means) must leave Prov zero: they then only seed speculative
	// recomputation and the accuracy counters, never a direct commit.
	Prov PlaceProvenance
}

// PlaceProvenance pins the inputs a placed artifact was derived from.
// Placement is a pure function of (post-synth netlist content, annealer
// options), so two equal provenances name one placement.
type PlaceProvenance struct {
	// UpstreamFP is the content fingerprint of the post-synth netlist
	// the placement was annealed from (coordinates still zero, so the
	// fingerprint is a pure pre-place identity).
	UpstreamFP uint64
	// Opts are the exact annealer options, with Workers normalized to
	// its engine-selection bit: the parallel annealer is bit-invariant
	// across worker counts (pinned by the place package's invariance
	// tests), so only serial-vs-parallel matters for the result.
	Opts place.Options
}

// placeProv computes the provenance of the placement the flow would run
// on n under o.
func placeProv(n *netlist.Netlist, o Options) PlaceProvenance {
	po := placeOptions(o, n)
	if po.Workers > 0 {
		po.Workers = 1
	}
	return PlaceProvenance{UpstreamFP: n.Fingerprint(), Opts: po}
}

// SpecOracle supplies upstream-stage predictions and learns from real
// results. Implementations must be safe for concurrent use: a campaign
// shares one oracle across every in-flight run. Observe methods receive
// live netlists that later stages will mutate — an oracle that retains
// an artifact must clone it.
//
// The designFP argument is the input design's content fingerprint, so
// one oracle can serve campaigns over many designs without collisions.
type SpecOracle interface {
	// Version identifies the predictor build; it participates in
	// prediction IDs so journaled hit/miss provenance survives predictor
	// upgrades.
	Version() string
	PredictSynth(designFP uint64, opts Options) (SynthPrediction, bool)
	PredictPlace(designFP uint64, opts Options) (PlacePrediction, bool)
	ObserveSynth(designFP uint64, opts Options, res synth.Result)
	// ObservePlace receives the run's placement along with its
	// provenance (the post-synth fingerprint and annealer options the
	// flow computed it under), so a memo oracle can serve the pair back
	// as a verbatim, directly-committable prediction.
	ObservePlace(designFP uint64, opts Options, res place.Result, placed *netlist.Netlist, prov PlaceProvenance)
}

// SpecJudgment is the verdict on one upstream prediction — a pure
// function of (prediction, real result, tolerance), computed on the
// caller's goroutine at stage commit.
type SpecJudgment struct {
	Predicted bool    // the oracle offered a prediction
	Launched  bool    // a speculative chain actually ran on it
	Hit       bool    // committed: Exact && ErrPct <= tolerance
	Exact     bool    // predicted artifact fingerprint == real artifact
	ErrPct    float64 // worst relative scalar error, percent
	ID        string  // prediction provenance
}

// SpecStats is one run's speculation accounting, reported through
// RunConfig.SpecReport and journaled by the campaign so a resumed
// campaign replays the same hit/miss counts. It is bookkeeping about
// wall-clock, deliberately kept out of Result: committed results stay
// byte-identical to the non-speculative reference.
type SpecStats struct {
	Version   string       // oracle version the run consulted
	Launched  int          // speculative chains started
	Skipped   int          // predictions dropped for want of a free slot
	Committed int          // downstream stages adopted from speculation
	Discarded int          // launched chains judged wrong and dropped
	Synth     SpecJudgment // prediction of the synth output (drives spec place)
	Place     SpecJudgment // prediction of the place output (drives spec cts/route)
}

// relErrPct is the relative error of pred vs real in percent, with a
// scale floor so near-zero reference values do not explode the ratio.
func relErrPct(pred, real, floor float64) float64 {
	return 100 * math.Abs(pred-real) / max(math.Abs(real), floor)
}

// chain is a speculative run of the stages [from, to) on its own
// artifact set, started from a clone of a predicted upstream artifact.
// Each stage's outcome is published behind its own done channel, so the
// real flow adopts stages as they land instead of waiting for the whole
// chain.
type chain struct {
	from, to int
	a        *artifacts
	done     [len(stages)]chan struct{} // done[i] closes once stage i is settled
	ok       [len(stages)]bool          // ok[i]: stage i produced its artifact
	cancel   context.CancelFunc
}

func newChain(from, to int, a *artifacts) *chain {
	c := &chain{from: from, to: to, a: a}
	for i := from; i < to; i++ {
		c.done[i] = make(chan struct{})
	}
	return c
}

// specRun owns one flow run's speculative side: the predictions drawn
// at launch, the chains they drive, and the judgments made as real
// stages commit. All judgment fields are written on the run's own
// goroutine; the chains communicate only through their done channels.
type specRun struct {
	slots  *sched.Slots
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc

	stats     SpecStats
	synthPred SynthPrediction
	placePred PlacePrediction
	place     *chain // place on the predicted synth artifact, if launched
	route     *chain // cts, groute, droute on the predicted placed one
}

// newSpecRun builds the speculative side of a run and launches whatever
// chains a free slot allows, or returns nil when speculation is off
// (disabled, or no oracle to predict with). Predictions that find no
// slot are still judged later (the accuracy counters measure the
// predictor, not the scheduler) but never adopted. supervised marks a
// live RouteSupervisor: the route chain then stops before detailed
// routing, because a stateful supervisor must see each route iteration
// exactly once, from the real stage.
func (rc RunConfig) newSpecRun(ctx context.Context, opts Options, fp uint64, supervised bool) *specRun {
	if !opts.Speculate.Enabled || rc.Oracle == nil {
		return nil
	}
	s := &specRun{slots: rc.SpecSlots, opts: opts, stats: SpecStats{Version: rc.Oracle.Version()}}
	s.ctx, s.cancel = context.WithCancel(ctx)
	sp, sOK := rc.Oracle.PredictSynth(fp, opts)
	pp, pOK := rc.Oracle.PredictPlace(fp, opts)
	if sOK {
		s.synthPred = sp
		s.stats.Synth = SpecJudgment{Predicted: true, ID: sp.ID}
		// A verbatim place prediction provably annealed from this same
		// predicted synth artifact makes the speculative anneal
		// redundant: if the synth prediction verifies, the placement
		// commits directly from the prediction (see source); if it
		// misses, the anneal's output could never be adopted. Either way,
		// spend no slot and no core on it.
		redundant := pOK && sp.Synth.Netlist != nil && pp.Prov.UpstreamFP != 0 &&
			pp.Prov == placeProv(sp.Synth.Netlist, opts)
		if !redundant && sp.Synth.Netlist != nil {
			s.place = s.start(&s.stats.Synth, stPlace, stCTS, sp.Synth.Netlist)
		}
	}
	if pOK {
		s.placePred = pp
		s.stats.Place = SpecJudgment{Predicted: true, ID: pp.ID}
		to := stDroute + 1
		if supervised {
			to = stDroute
		}
		s.route = s.start(&s.stats.Place, stCTS, to, pp.Netlist)
	}
	return s
}

// start launches a chain over [from, to) on a clone of the predicted
// artifact art when a free slot allows, and records the launch in j.
func (s *specRun) start(j *SpecJudgment, from, to int, art *netlist.Netlist) *chain {
	if !s.slots.TryAcquire() {
		s.stats.Skipped++
		return nil
	}
	s.stats.Launched++
	j.Launched = true
	c := newChain(from, to, &artifacts{opts: s.opts})
	ctx, cancel := context.WithCancel(s.ctx)
	c.cancel = cancel
	go s.runChain(ctx, c, art, j.ID)
	return c
}

// runChain computes c's stages in order on a clone of art (the oracle
// owns the predicted artifact, and other runs may be speculating from it
// concurrently). A stage whose context died before or during it is
// partial or missing, and so is every stage after it. Chains not adopted
// by the time the run returns are cancelled with it and stop at their
// next cancellation point (an anneal's poll, a rip-up pass, a stage
// boundary), releasing their slot then.
func (s *specRun) runChain(ctx context.Context, c *chain, art *netlist.Netlist, pred string) {
	defer s.slots.Release()
	defer c.cancel()
	sp := trace.Begin("spec.launch")
	sp.Set("stage", stages[c.from].name)
	sp.Set("pred", pred)
	c.a.n = art.Clone()
	ok := true
	for i := c.from; i < c.to; i++ {
		if ok = ok && ctx.Err() == nil; ok {
			stages[i].compute(ctx, c.a)
			ok = ctx.Err() == nil
		}
		c.ok[i] = ok
		close(c.done[i])
	}
	if !ok {
		sp.SetOutcome(trace.Aborted)
	}
	sp.End()
}

// judge grades the prediction of stage i's artifact (synth or place)
// right after the real stage commits — artifact-fingerprint-exact and
// scalar-close, a pure function of (prediction, real result, tolerance).
// Its verdict gates adoption of the chain the prediction drove; a miss
// reaps that chain now, so it stops contending with the real stages
// instead of burning to completion.
func (s *specRun) judge(i int, a *artifacts) {
	if s == nil {
		return
	}
	j, c := &s.stats.Synth, s.place
	if i == stPlace {
		j, c = &s.stats.Place, s.route
	}
	if !j.Predicted {
		return
	}
	pred := s.synthPred.Synth.Netlist
	if i == stSynth {
		j.ErrPct = max(relErrPct(s.synthPred.Synth.AreaUm2, a.syn.AreaUm2, 1),
			relErrPct(s.synthPred.Synth.WNSPs, a.syn.WNSPs, 25))
	} else {
		pred = s.placePred.Netlist
		j.ErrPct = relErrPct(s.placePred.Place.HPWLUm, a.pl.HPWLUm, 1)
	}
	j.Exact = pred != nil && pred.Fingerprint() == a.n.Fingerprint()
	j.Hit = j.Exact && j.ErrPct <= s.opts.Speculate.TolerancePct
	// The trace-level record of every verdict.
	name, out := "spec.commit", trace.OK
	if !j.Hit {
		name, out = "spec.discard", trace.Aborted
		if c != nil {
			s.stats.Discarded++
			c.cancel()
		}
	}
	sp := trace.Begin(name)
	sp.Set("stage", stages[i].name)
	sp.Set("pred", j.ID)
	sp.SetFloat("err_pct", j.ErrPct)
	sp.Set("launched", strconv.FormatBool(j.Launched))
	sp.EndWith(out)
}

// source picks the chain stage i adopts from, strongest first. A
// verbatim place prediction whose provenance equals this run's (prov:
// the committed synth output plus the exact annealer options) is a chain
// whose place stage has already landed: placement is a pure function of
// exactly those inputs, so the predicted pair IS the stage's result — no
// anneal, no slot — and the decision is still a pure function of
// (prediction, real upstream result). Failing that, a hit judgment of
// the prediction a launched chain ran on unlocks that chain. nil means
// compute.
func (s *specRun) source(i int, prov PlaceProvenance) *chain {
	switch {
	case s == nil:
	case i == stPlace && s.stats.Place.Predicted && s.placePred.Netlist != nil &&
		prov.UpstreamFP != 0 && s.placePred.Prov == prov:
		c := newChain(stPlace, stCTS, &artifacts{n: s.placePred.Netlist, pl: s.placePred.Place})
		c.ok[stPlace] = true
		close(c.done[stPlace])
		return c
	case i == stPlace && s.stats.Synth.Hit:
		return s.place
	case i > stPlace && s.stats.Place.Hit:
		return s.route
	}
	return nil
}

// adoptOrCompute is stage i's work on a run whose source for it is src:
// it waits for src to settle the stage and adopts the artifact into a,
// or computes the stage for real when there is no source or src did not
// produce it (it stopped short, or died with its context) — so a chain
// can cost a stage time, never its result. A wait that ctx ends leaves
// the stage undone.
func (s *specRun) adoptOrCompute(ctx context.Context, i int, a *artifacts, src *chain) {
	if src != nil && i < src.to {
		select {
		case <-src.done[i]:
		case <-ctx.Done():
			return
		}
		if src.ok[i] {
			stages[i].adopt(a, src.a)
			s.stats.Committed++
			return
		}
	}
	stages[i].compute(ctx, a)
}
