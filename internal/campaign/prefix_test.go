package campaign

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// freqSweep is tiny at 8 target frequencies x 4 seeds, where synthesis
// resizes no cell, so the 8 runs of a seed share one post-synthesis
// prefix; then pulpino-proxy at 0.40 and 0.50 GHz x 2 seeds, where only
// the 0.40 GHz runs resize nothing: a 0.50 GHz run finds its seed's
// prefix, fails timing at its own period and runs in full.
func freqSweep() []Point {
	var pts []Point
	tiny := tinyDesign(1)
	for f := 0; f < 8; f++ {
		base := flow.Options{TargetFreqGHz: 0.30 + 0.05*float64(f)}
		pts = append(pts, Points(tiny, KeyFor(tiny), base, []int64{2, 3, 4, 5})...)
	}
	pulpino := netlist.Generate(cellib.Default14nm(), netlist.PulpinoProxy(1))
	for _, f := range []float64{0.40, 0.50} {
		pts = append(pts, Points(pulpino, KeyFor(pulpino), flow.Options{TargetFreqGHz: f}, []int64{2, 3})...)
	}
	return pts
}

// finishTier is a cache tier that serves nothing and takes the fingerprint
// of each computed result's netlist as its run finishes: the cache writes a
// computed entry through before any other caller sees it.
type finishTier struct {
	mu sync.Mutex
	fp map[*netlist.Netlist]uint64
}

func (ft *finishTier) Load(string) (Entry, bool) { return Entry{}, false }

func (ft *finishTier) Store(e Entry) {
	fp := e.Res.Netlist.Fingerprint()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.fp[e.Res.Netlist] = fp
}

// sweepEngine is an engine of the given workers whose cache fingerprints
// every result as its run finishes (see requireFlowRun).
func sweepEngine(workers int, obs flow.Observer) *Engine {
	c := NewCache(0)
	c.SetTier(&finishTier{fp: map[*netlist.Netlist]uint64{}})
	return New(Config{Workers: workers, Cache: c, Observer: obs})
}

// runReused runs pts on eng and returns the results and how many runs
// reused a prefix.
func runReused(t *testing.T, eng *Engine, pts []Point) ([]*flow.Result, int64) {
	t.Helper()
	before := metrics.Get("flow.prefix.reused")
	got, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	return got, metrics.Get("flow.prefix.reused") - before
}

// requireFlowRun fails unless every result is what flow.Run returns for its
// point — its synthesis result, its full signoff report (endpoints and
// critical path included), its netlist and everything else — and every
// netlist is a result's own, at the point's clock period. The reused runs
// of eng's sweep share the instance and net storage of the runs they
// adopted, so the results hold that many fewer distinct arrays, and no
// run wrote a netlist after its run finished: each fingerprint is the
// one eng's cache took then.
func requireFlowRun(t *testing.T, eng *Engine, pts []Point, got []*flow.Result, reused int64) {
	t.Helper()
	finished := eng.cache.tier.(*finishTier).fp
	insts, nets := map[*netlist.Instance]bool{}, map[*netlist.Net]bool{}
	for i, g := range got {
		fp, ok := finished[g.Netlist]
		if !ok {
			t.Fatalf("point %d: its netlist was never written through the cache", i)
		}
		if now := g.Netlist.Fingerprint(); now != fp {
			t.Fatalf("point %d: netlist fingerprint %016x after the sweep, %016x when its run finished", i, now, fp)
		}
		insts[&g.Netlist.Insts[0]], nets[&g.Netlist.Nets[0]] = true, true
	}
	if want := len(got) - int(reused); len(insts) != want || len(nets) != want {
		t.Fatalf("%d results over %d instance and %d net arrays; %d reused a prefix, so want %d of each",
			len(got), len(insts), len(nets), reused, want)
	}
	own := map[*netlist.Netlist]int{}
	for i, p := range pts {
		want := flow.Run(p.Design(), p.Options())
		g := got[i]
		switch {
		case !reflect.DeepEqual(g.Synth, want.Synth):
			t.Fatalf("point %d (%s): synthesis result differs from flow.Run's", i, p.Options().Key())
		case !reflect.DeepEqual(g.Sign, want.Sign):
			t.Fatalf("point %d (%s): signoff report differs from flow.Run's", i, p.Options().Key())
		case !reflect.DeepEqual(g.Netlist, want.Netlist):
			t.Fatalf("point %d (%s): netlist differs from flow.Run's", i, p.Options().Key())
		case !reflect.DeepEqual(g, want):
			t.Fatalf("point %d (%s): result differs from flow.Run's", i, p.Options().Key())
		case g.Synth.Netlist != g.Netlist || g.Netlist.ClockPeriodPs != 1000/p.Options().TargetFreqGHz:
			t.Fatalf("point %d (%s): netlist at %v ps is not the run's own", i, p.Options().Key(), g.Netlist.ClockPeriodPs)
		}
		if j, dup := own[g.Netlist]; dup {
			t.Fatalf("points %d and %d share one netlist", j, i)
		}
		own[g.Netlist] = i
	}
}

// TestPrefixReuseMatchesFlowRun: an engine's frequency sweep returns what
// flow.Run returns for every point, while one worker synthesises, places,
// routes and times each seed once and only evaluates its slack at the
// other seven frequencies. With more workers two concurrent misses may
// both compute a prefix; the results are the same either way. A run the
// campaign aborts before it finishes leaves no prefix behind, and neither
// does a Run whose points share none.
func TestPrefixReuseMatchesFlowRun(t *testing.T) {
	pts := freqSweep()
	for i, p := range pts {
		r := flow.Run(p.Design(), p.Options())
		if resized, hard := r.Synth.Upsized != 0, p.Options().TargetFreqGHz == 0.50 && p.Design().Name != "tiny"; resized != hard {
			t.Fatalf("point %d (%s %s) resized %d cells", i, p.Design().Name, p.Options().Key(), r.Synth.Upsized)
		}
	}
	for _, workers := range []int{1, 4} {
		eng := sweepEngine(workers, nil)
		got, reused := runReused(t, eng, pts)
		requireFlowRun(t, eng, pts, got, reused)
		t.Logf("workers %d: %d of %d runs reused a prefix", workers, reused, len(pts))
		if workers == 1 && reused != 28 {
			t.Errorf("workers 1: %d runs reused a prefix, want 28 (4 seeds computed once each)", reused)
		}
		if reused > 28 {
			t.Errorf("workers %d: %d reuses, more than the 28 runs that follow a seed's first", workers, reused)
		}
	}

	tiny := tinyDesign(1)
	at := func(ghz, derate float64) Point {
		return NewPoint(tiny, KeyFor(tiny), flow.Options{TargetFreqGHz: ghz, DeratePct: derate, Seed: 2})
	}

	t.Run("aborted_run_stores_nothing", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The first point's groute commit cancels the campaign, so neither
		// of two points that share a prefix finishes.
		eng := sweepEngine(1, flow.ObserverFunc(func(rec flow.StepRecord) {
			if rec.Step == "groute" {
				cancel()
			}
		}))
		if _, err := eng.Run(ctx, []Point{pts[0], pts[4]}); err != context.Canceled {
			t.Fatalf("aborted campaign: err = %v, want context.Canceled", err)
		}
		eng.obs = nil
		got, reused := runReused(t, eng, pts)
		requireFlowRun(t, eng, pts, got, reused)
		if reused != 28 {
			t.Errorf("after an aborted run: %d reuses, want 28 — the aborted run left a prefix", reused)
		}
	})

	t.Run("derate_sibling_recomputes_signoff", func(t *testing.T) {
		// The second point takes all but its signoff from the first; at
		// another derate its signoff is its own, so the donor's report at
		// its period would differ from flow.Run's.
		sweep := []Point{at(0.30, 0), at(0.50, 5)}
		eng := sweepEngine(1, nil)
		got, reused := runReused(t, eng, sweep)
		requireFlowRun(t, eng, sweep, got, reused)
		if reused != 1 {
			t.Errorf("%d reuses, want 1", reused)
		}
	})

	t.Run("failing_sibling_runs_in_full", func(t *testing.T) {
		// Tiny fails timing at 3 GHz and resizes: it finds the prefix of
		// the 0.30 GHz run, runs in full, and the 0.50 GHz run after it
		// still reuses that prefix.
		sweep := []Point{at(0.30, 0), at(3.0, 0), at(0.50, 0)}
		eng := sweepEngine(1, nil)
		got, reused := runReused(t, eng, sweep)
		requireFlowRun(t, eng, sweep, got, reused)
		if got[1].Synth.Upsized == 0 {
			t.Fatal("tiny at 3 GHz resized nothing; the case needs a run that fails timing")
		}
		if reused != 1 {
			t.Errorf("%d reuses, want 1 (the 0.50 GHz run)", reused)
		}
	})

	t.Run("one_point_run_stores_nothing", func(t *testing.T) {
		// A Run of one point gets no memo, nor does a point of a Run that
		// shares its prefix with no other: the two-point Run after them
		// computes its first point and reuses only for its second.
		eng := sweepEngine(1, nil)
		if _, reused := runReused(t, eng, []Point{at(0.30, 0)}); reused != 0 {
			t.Fatalf("a one-point Run reused %d prefixes", reused)
		}
		other := NewPoint(tiny, KeyFor(tiny), flow.Options{TargetFreqGHz: 0.35, Seed: 3})
		if _, reused := runReused(t, eng, []Point{at(0.35, 0), other}); reused != 0 {
			t.Fatalf("a Run of two seeds reused %d prefixes", reused)
		}
		sweep := []Point{at(0.40, 0), at(0.50, 0)}
		got, reused := runReused(t, eng, sweep)
		requireFlowRun(t, eng, sweep, got, reused)
		if reused != 1 {
			t.Errorf("%d reuses after Runs that share no prefix, want 1 — one of them stored a prefix", reused)
		}
	})
}
