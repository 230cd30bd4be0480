package spec

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/synth"
)

// normalized strips the one field a speculative run is allowed to differ
// in — its own configuration — so DeepEqual compares pure flow content.
func normalized(r *flow.Result) *flow.Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Options.Speculate = flow.SpecConfig{}
	return &c
}

// capturingOracle records the true artifacts of a run (cloned) so tests
// can build forced predictions from them. It never predicts.
type capturingOracle struct {
	mu       sync.Mutex
	synth    synth.Result
	synthArt *netlist.Netlist
	place    place.Result
	placeArt *netlist.Netlist
	prov     flow.PlaceProvenance
}

func (c *capturingOracle) Version() string { return "capture/1" }
func (c *capturingOracle) PredictSynth(uint64, flow.Options) (flow.SynthPrediction, bool) {
	return flow.SynthPrediction{}, false
}
func (c *capturingOracle) PredictPlace(uint64, flow.Options) (flow.PlacePrediction, bool) {
	return flow.PlacePrediction{}, false
}
func (c *capturingOracle) ObserveSynth(_ uint64, _ flow.Options, res synth.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.synth = res
	c.synthArt = res.Netlist.Clone()
}
func (c *capturingOracle) ObservePlace(_ uint64, _ flow.Options, res place.Result, placed *netlist.Netlist, prov flow.PlaceProvenance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.place = res
	c.placeArt = placed.Clone()
	c.prov = prov
}

// stubOracle serves fixed predictions, so tests control exactly what the
// speculation engine believes.
type stubOracle struct {
	synthPred flow.SynthPrediction
	synthOK   bool
	placePred flow.PlacePrediction
	placeOK   bool
}

func (s *stubOracle) Version() string { return "stub/1" }
func (s *stubOracle) PredictSynth(uint64, flow.Options) (flow.SynthPrediction, bool) {
	return s.synthPred, s.synthOK
}
func (s *stubOracle) PredictPlace(uint64, flow.Options) (flow.PlacePrediction, bool) {
	return s.placePred, s.placeOK
}
func (s *stubOracle) ObserveSynth(uint64, flow.Options, synth.Result) {}
func (s *stubOracle) ObservePlace(uint64, flow.Options, place.Result, *netlist.Netlist, flow.PlaceProvenance) {
}

// runSpec runs one speculative flow and returns its result and stats.
func runSpec(t *testing.T, design *netlist.Netlist, opts flow.Options, oracle flow.SpecOracle, slots *sched.Slots) (*flow.Result, *flow.SpecStats) {
	t.Helper()
	var st *flow.SpecStats
	res, err := flow.RunCfg(context.Background(), design, opts, flow.RunConfig{
		Oracle: oracle, SpecSlots: slots,
		SpecReport: func(s flow.SpecStats) { st = &s },
	})
	if err != nil {
		t.Fatalf("speculative run failed: %v", err)
	}
	return res, st
}

func TestSpeculativeHitCommitsIdenticalResult(t *testing.T) {
	design := testDesign(1)
	base := flow.Options{TargetFreqGHz: 0.5, Seed: 3, RouteIters: 12}
	ref := flow.Run(design, base)

	mem := NewMemory(Options{})
	// Warm the oracle with a run that shares every upstream knob and
	// differs downstream — the sweep shape speculation exists for.
	warm := base
	warm.RouteIters = 8
	if _, err := flow.RunCfg(context.Background(), design, warm, flow.RunConfig{Oracle: mem}); err != nil {
		t.Fatalf("warm run failed: %v", err)
	}

	specOpts := base
	specOpts.Speculate = flow.SpecConfig{Enabled: true}
	got, st := runSpec(t, design, specOpts, mem, nil)

	if st == nil {
		t.Fatal("SpecReport never fired")
	}
	if !st.Synth.Predicted || !st.Synth.Exact || !st.Synth.Hit {
		t.Errorf("synth judgment = %+v, want exact hit", st.Synth)
	}
	if !st.Place.Predicted || !st.Place.Exact || !st.Place.Hit {
		t.Errorf("place judgment = %+v, want exact hit", st.Place)
	}
	// Only the downstream chain launches: the exact-tier place
	// prediction carries provenance pinning it to the predicted synth
	// artifact, so the speculative re-anneal is skipped as redundant and
	// the placement commits as a verified memo instead.
	if st.Launched != 1 || st.Skipped != 0 || st.Discarded != 0 {
		t.Errorf("launched/skipped/discarded = %d/%d/%d, want 1/0/0",
			st.Launched, st.Skipped, st.Discarded)
	}
	// place + cts + groute + droute all adopted.
	if st.Committed != 4 {
		t.Errorf("committed = %d, want 4", st.Committed)
	}
	// The result records the (default-normalized) speculation config.
	if !got.Options.Speculate.Enabled || got.Options.Speculate.TolerancePct != 1 {
		t.Errorf("result lost its speculation config: %+v", got.Options.Speculate)
	}
	if !reflect.DeepEqual(normalized(got), ref) {
		t.Error("committed speculative result differs from the non-speculative reference")
	}
}

func TestSpeculativeMispredictsDiscardAndMatchReference(t *testing.T) {
	design := testDesign(2)
	base := flow.Options{TargetFreqGHz: 0.55, Seed: 7, RouteIters: 10,
		Speculate: flow.SpecConfig{Enabled: true, TolerancePct: 1}}

	noSpec := base
	noSpec.Speculate = flow.SpecConfig{}
	ref := flow.Run(design, noSpec)

	// Capture the true artifacts to perturb.
	cap0 := &capturingOracle{}
	if _, err := flow.RunCfg(context.Background(), design, noSpec, flow.RunConfig{Oracle: cap0}); err != nil {
		t.Fatalf("capture run failed: %v", err)
	}
	// And the artifacts of a different option point — the stale-oracle
	// miss. (A different *seed* is not enough: tiny-design synthesis is
	// seed-insensitive, which the cross-seed tier legitimately exploits.)
	otherPt := noSpec
	otherPt.TargetFreqGHz = 0.7
	capOther := &capturingOracle{}
	if _, err := flow.RunCfg(context.Background(), design, otherPt, flow.RunConfig{Oracle: capOther}); err != nil {
		t.Fatalf("capture run failed: %v", err)
	}
	if capOther.synthArt.Fingerprint() == cap0.synthArt.Fingerprint() {
		t.Fatal("test premise broken: 0.55 and 0.7 GHz synthesized identical netlists")
	}

	perturb := func(n *netlist.Netlist) *netlist.Netlist {
		c := n.Clone()
		c.Insts[0].X += 1
		return c
	}
	truePreds := func() (flow.SynthPrediction, flow.PlacePrediction) {
		// The predictions carry the pre-place artifact clone, as a real
		// oracle must: the live result netlist mutates through the flow.
		// The place pair is a verbatim observation, so it carries its
		// provenance.
		sp := flow.SynthPrediction{Synth: cap0.synth, ID: "t/s"}
		sp.Synth.Netlist = cap0.synthArt
		return sp, flow.PlacePrediction{Place: cap0.place, Netlist: cap0.placeArt, Prov: cap0.prov, ID: "t/p"}
	}

	cases := []struct {
		name      string
		mutate    func(*flow.SynthPrediction, *flow.PlacePrediction)
		wantHit   bool
		wantExact bool
	}{
		{"exact scalars and artifacts commit", func(*flow.SynthPrediction, *flow.PlacePrediction) {}, true, true},
		{"within tolerance commits", func(s *flow.SynthPrediction, p *flow.PlacePrediction) {
			// Perturbed scalars make the pair an estimate, not a
			// verbatim observation: a correct oracle must then drop the
			// provenance, and the engine falls back to speculative
			// recomputation (which a hit adopts with the *true* scalars).
			s.Synth.AreaUm2 *= 1.005 // 0.5% < 1%
			p.Place.HPWLUm *= 1.005
			p.Prov = flow.PlaceProvenance{}
		}, true, true},
		{"near hit (scalar off) discards", func(s *flow.SynthPrediction, p *flow.PlacePrediction) {
			s.Synth.AreaUm2 *= 1.10 // 10% > 1%
			p.Place.HPWLUm *= 1.10
			p.Prov = flow.PlaceProvenance{}
		}, false, true},
		{"wrong artifact discards despite perfect scalars", func(s *flow.SynthPrediction, p *flow.PlacePrediction) {
			s.Synth.Netlist = perturb(s.Synth.Netlist)
			p.Netlist = perturb(p.Netlist)
			p.Prov = flow.PlaceProvenance{}
		}, false, false},
		{"stale artifact from another option point discards", func(s *flow.SynthPrediction, p *flow.PlacePrediction) {
			// A genuinely stale memo keeps its (true) provenance — it
			// describes another option point, so the provenance check
			// must reject it against this run's synth output.
			s.Synth = capOther.synth
			s.Synth.Netlist = capOther.synthArt
			p.Place = capOther.place
			p.Netlist = capOther.placeArt
			p.Prov = capOther.prov
		}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, pp := truePreds()
			tc.mutate(&sp, &pp)
			stub := &stubOracle{synthPred: sp, synthOK: true, placePred: pp, placeOK: true}
			got, st := runSpec(t, design, base, stub, nil)
			if st == nil {
				t.Fatal("SpecReport never fired")
			}
			if st.Synth.Hit != tc.wantHit || st.Place.Hit != tc.wantHit {
				t.Errorf("hits = %t/%t, want %t", st.Synth.Hit, st.Place.Hit, tc.wantHit)
			}
			if st.Synth.Exact != tc.wantExact || st.Place.Exact != tc.wantExact {
				t.Errorf("exact = %t/%t, want %t", st.Synth.Exact, st.Place.Exact, tc.wantExact)
			}
			if tc.wantHit {
				if st.Discarded != 0 || st.Committed != 4 {
					t.Errorf("discarded/committed = %d/%d, want 0/4", st.Discarded, st.Committed)
				}
			} else {
				// Every launched chain that missed — and only those —
				// is discarded. (Redundancy-skipped or slot-starved
				// chains never launched, so they have nothing to
				// discard.)
				wantDiscarded := 0
				for _, j := range []flow.SpecJudgment{st.Synth, st.Place} {
					if j.Launched && !j.Hit {
						wantDiscarded++
					}
				}
				if wantDiscarded == 0 {
					t.Error("miss case launched no speculative chain at all")
				}
				if st.Discarded != wantDiscarded || st.Committed != 0 {
					t.Errorf("discarded/committed = %d/%d, want %d/0",
						st.Discarded, st.Committed, wantDiscarded)
				}
			}
			// The only acceptance criterion that matters: the committed
			// result is the reference result, hit or miss.
			if !reflect.DeepEqual(normalized(got), ref) {
				t.Error("result differs from non-speculative reference")
			}
		})
	}
}

func TestSpeculationSlotExhaustion(t *testing.T) {
	design := testDesign(3)
	opts := flow.Options{TargetFreqGHz: 0.5, Seed: 5, RouteIters: 8,
		Speculate: flow.SpecConfig{Enabled: true}}
	noSpec := opts
	noSpec.Speculate = flow.SpecConfig{}
	ref := flow.Run(design, noSpec)

	cap0 := &capturingOracle{}
	if _, err := flow.RunCfg(context.Background(), design, noSpec, flow.RunConfig{Oracle: cap0}); err != nil {
		t.Fatalf("capture run failed: %v", err)
	}
	synthPred := flow.SynthPrediction{Synth: cap0.synth, ID: "t/s"}
	synthPred.Synth.Netlist = cap0.synthArt
	stub := &stubOracle{
		synthPred: synthPred, synthOK: true,
		placePred: flow.PlacePrediction{Place: cap0.place, Netlist: cap0.placeArt, ID: "t/p"}, placeOK: true,
	}

	// Zero free slots: both predictions are judged (they are correct) but
	// nothing launches, nothing is adopted, and the result is still the
	// reference — the scheduler can starve speculation, never corrupt it.
	slots := sched.NewSlots(1)
	if !slots.TryAcquire() {
		t.Fatal("could not saturate slots")
	}
	got, st := runSpec(t, design, opts, stub, slots)
	if st.Launched != 0 || st.Skipped != 2 {
		t.Fatalf("launched/skipped = %d/%d, want 0/2", st.Launched, st.Skipped)
	}
	if !st.Synth.Hit || !st.Place.Hit {
		t.Error("unlaunched predictions must still be judged for the accuracy counters")
	}
	if st.Committed != 0 {
		t.Errorf("committed = %d, want 0 without a launch", st.Committed)
	}
	if !reflect.DeepEqual(normalized(got), ref) {
		t.Error("slot-starved speculative run differs from reference")
	}
	if taken, skipped := slots.Stats(); taken != 1 || skipped != 2 {
		t.Errorf("slot stats = %d/%d, want 1 taken, 2 skipped", taken, skipped)
	}

	// A provenance-carrying (verbatim) place prediction needs no slot at
	// all: the placement commits as a verified memo even under full
	// starvation, and the redundant speculative anneal is never offered
	// to the scheduler (only the downstream chain asks — and is refused).
	provPred := stub.placePred
	provPred.Prov = cap0.prov
	stub2 := &stubOracle{synthPred: synthPred, synthOK: true, placePred: provPred, placeOK: true}
	got2, st2 := runSpec(t, design, opts, stub2, slots)
	slots.Release()
	if st2.Launched != 0 || st2.Skipped != 1 {
		t.Errorf("verbatim starved run launched/skipped = %d/%d, want 0/1", st2.Launched, st2.Skipped)
	}
	if st2.Committed != 1 {
		t.Errorf("verbatim starved run committed = %d, want 1 (the place memo)", st2.Committed)
	}
	if !reflect.DeepEqual(normalized(got2), ref) {
		t.Error("memo-committed starved run differs from reference")
	}
}

// iterLog is a stateful live supervisor: it records every detailed-route
// iteration it is shown and STOPs the run at iteration stopAt.
type iterLog struct {
	stopAt int
	iters  []int
}

func (l *iterLog) OnStep(flow.StepRecord) {}
func (l *iterLog) RouteIter(_ string, _ int64, iter int, _ []int) route.IterAction {
	l.iters = append(l.iters, iter)
	if iter >= l.stopAt {
		return route.Stop
	}
	return route.Continue
}

// TestSupervisedSpeculativeRunRoutesForReal: under a live RouteSupervisor
// the route chain stops before detailed routing, so an exact place
// prediction commits place, cts and groute from speculation while droute
// runs on the real path with the hook — the supervisor sees each
// iteration exactly once — and the result is the unspeculated supervised
// run's.
func TestSupervisedSpeculativeRunRoutesForReal(t *testing.T) {
	design := testDesign(6)
	opts := flow.Options{TargetFreqGHz: 0.5, Seed: 4, RouteIters: 10}
	const stopAt = 4

	refLog := &iterLog{stopAt: stopAt}
	cap0 := &capturingOracle{}
	ref, err := flow.RunCfg(context.Background(), design, opts, flow.RunConfig{Observer: refLog, Oracle: cap0})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Stopped || ref.Route.StopIter != stopAt {
		t.Fatalf("test premise broken: reference run stopped=%t at %d, want a STOP at %d", ref.Stopped, ref.Route.StopIter, stopAt)
	}

	stub := &stubOracle{placeOK: true, placePred: flow.PlacePrediction{
		Place: cap0.place, Netlist: cap0.placeArt, Prov: cap0.prov, ID: "t/p"}}
	log := &iterLog{stopAt: stopAt}
	specOpts := opts
	specOpts.Speculate = flow.SpecConfig{Enabled: true}
	var st *flow.SpecStats
	got, err := flow.RunCfg(context.Background(), design, specOpts, flow.RunConfig{
		Observer: log, Oracle: stub,
		SpecReport: func(s flow.SpecStats) { st = &s },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || !st.Place.Hit || st.Launched != 1 {
		t.Fatalf("spec stats %+v, want a launched route chain on a place hit", st)
	}
	// place (the verbatim memo), cts and groute — never droute.
	if st.Committed != 3 {
		t.Errorf("committed = %d, want 3: the supervised chain must skip droute", st.Committed)
	}
	// The real droute ran with the hook: the supervisor stopped it, and
	// saw iterations 1..stopAt once each, in order.
	if !got.Stopped || got.Route.StopIter != stopAt {
		t.Errorf("stopped=%t at %d, want the supervisor's STOP at %d", got.Stopped, got.Route.StopIter, stopAt)
	}
	if !reflect.DeepEqual(log.iters, refLog.iters) || len(log.iters) != stopAt {
		t.Errorf("supervisor saw iterations %v, want %v", log.iters, refLog.iters)
	}
	for k, it := range log.iters {
		if it != k+1 {
			t.Fatalf("supervisor saw iterations %v, want each of 1..%d once", log.iters, stopAt)
		}
	}
	if !reflect.DeepEqual(normalized(got), ref) {
		t.Error("supervised speculative result differs from the unspeculated supervised run")
	}
}

// specSweepPoints is the worker-invariance workload: two downstream
// variants per seed, so exact-tier speculation warms up mid-campaign and
// hit patterns depend on scheduling — which must never show in results.
func specSweepPoints(design *netlist.Netlist, key string, speculate bool) []campaign.Point {
	var pts []campaign.Point
	for _, seed := range []int64{1, 2, 3} {
		for _, iters := range []int{8, 12} {
			o := flow.Options{TargetFreqGHz: 0.55, Seed: seed, RouteIters: iters}
			if speculate {
				o.Speculate = flow.SpecConfig{Enabled: true}
			}
			pts = append(pts, campaign.NewPoint(design, key, o))
		}
	}
	return pts
}

func TestSpeculativeCampaignWorkerInvariantUnderFaults(t *testing.T) {
	design := testDesign(4)
	key := campaign.KeyFor(design)
	refPts := specSweepPoints(design, key, false)
	want := make([]*flow.Result, len(refPts))
	for i, p := range refPts {
		want[i] = flow.Run(p.Design(), p.Options())
	}

	pts := specSweepPoints(design, key, true)
	for _, workers := range []int{1, 2, 4, 8} {
		eng := campaign.New(campaign.Config{
			Workers: workers,
			Cache:   campaign.NewCache(0),
			Oracle:  NewMemory(Options{CrossSeed: true}),
			Faults:  &flow.FaultInjector{Seed: 5, CrashRate: 0.08, LicenseDropRate: 0.05},
			Retry:   campaign.Retry{Max: 25},
		})
		got, err := eng.Run(context.Background(), pts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if !reflect.DeepEqual(normalized(got[i]), want[i]) {
				t.Errorf("workers=%d point %d: speculative result differs from fault-free non-speculative reference", workers, i)
			}
		}
	}
}

// journaledCache is a fresh campaign cache with jr as its durable tier.
func journaledCache(jr *campaign.Journal) *campaign.Cache {
	c := campaign.NewCache(0)
	c.SetTier(jr)
	return c
}

// TestSpeculativeCampaignResumeReplaysStats: a resumed point never runs,
// so the journal carries its speculation outcome and the tier hit counts
// it — a resumed campaign's predictor accounting matches what the journal
// holds, judgment for judgment, and its results the non-speculative
// reference. The first life runs to completion: a partial one would
// compute the remainder inside the resuming Run, and those live runs add
// judgments of their own (scripts/check.sh spec kills one mid-flight and
// diffs the results instead).
func TestSpeculativeCampaignResumeReplaysStats(t *testing.T) {
	design := testDesign(5)
	key := campaign.KeyFor(design)
	pts := specSweepPoints(design, key, true)
	refPts := specSweepPoints(design, key, false)
	want := make([]*flow.Result, len(refPts))
	for i, p := range refPts {
		want[i] = flow.Run(p.Design(), p.Options())
	}

	dir := filepath.Join(t.TempDir(), "wal")
	jr, err := campaign.OpenJournal(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Config{
		Workers: 2, Cache: journaledCache(jr),
		Oracle: NewMemory(Options{CrossSeed: true}),
	})
	if _, err := eng.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	// What the journal holds, read off the raw log.
	log, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantDelta int64
	for _, rec := range log.Records() {
		e, err := campaign.DecodeEntry(rec)
		if err != nil {
			t.Fatal(err)
		}
		if e.Spec == nil {
			continue
		}
		if e.Spec.Synth.Predicted {
			wantDelta++
		}
		if e.Spec.Place.Predicted {
			wantDelta++
		}
	}
	if len(log.Records()) != len(pts) || wantDelta == 0 {
		t.Fatalf("first life journaled %d of %d points holding %d judgments", len(log.Records()), len(pts), wantDelta)
	}
	log.Close()

	// Second life: resume from the journal with a fresh oracle and count
	// what the tier hits mirror into the predictor counters.
	jr2, err := campaign.OpenJournal(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	judged := func() int64 {
		return metrics.Get("predict.synth.hit") + metrics.Get("predict.synth.miss") +
			metrics.Get("predict.place.hit") + metrics.Get("predict.place.miss")
	}
	before := judged()
	eng2 := campaign.New(campaign.Config{
		Workers: 2, Cache: journaledCache(jr2),
		Oracle: NewMemory(Options{CrossSeed: true}),
	})
	got, err := eng2.Run(context.Background(), pts)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if st := jr2.ResumeStats(); st.Replayed != len(pts) {
		t.Errorf("resume stats %+v, want every point replayed", st)
	}
	if got, want := judged()-before, wantDelta; got != want {
		t.Errorf("resume mirrored %d predictor judgments, journal holds %d", got, want)
	}
	for i := range got {
		// A replayed point is its journaled summary: compare what both
		// are guaranteed to carry.
		if !reflect.DeepEqual(normalized(got[i]).Summary(), want[i].Summary()) {
			t.Errorf("resumed point %d differs from the non-speculative reference", i)
		}
	}
}
