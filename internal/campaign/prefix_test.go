package campaign

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

// freqSweep is tiny at 8 target frequencies x 4 seeds, where synthesis
// resizes no cell, so the 8 runs of a seed share one post-synthesis
// prefix; then pulpino-proxy at 0.40 and 0.50 GHz x 2 seeds, where only
// the 0.40 GHz runs resize nothing, so none of them has a partner.
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

// TestPrefixReuseMatchesFlowRun: an engine's frequency sweep returns what
// flow.Run returns for every point — the summary and the placed netlist —
// while one worker computes each seed's place, cts, groute and droute
// once and reuses them at the other seven frequencies. With more workers
// two concurrent misses may both compute a prefix; the results are the
// same either way. A run the campaign aborts before its droute commits
// leaves no prefix behind.
func TestPrefixReuseMatchesFlowRun(t *testing.T) {
	pts := freqSweep()
	want := make([]*flow.Result, len(pts))
	for i, p := range pts {
		want[i] = flow.Run(p.Design(), p.Options())
		if resized, hard := want[i].Synth.Upsized != 0, p.Options().TargetFreqGHz == 0.50 && p.Design().Name != "tiny"; resized != hard {
			t.Fatalf("point %d (%s %s) resized %d cells", i, p.Design().Name, p.Options().Key(), want[i].Synth.Upsized)
		}
	}
	check := func(t *testing.T, got []*flow.Result) {
		t.Helper()
		for i := range want {
			if !reflect.DeepEqual(got[i].Summary(), want[i].Summary()) {
				t.Fatalf("point %d (%s): summary differs from flow.Run's", i, pts[i].Options().Key())
			}
			if !reflect.DeepEqual(got[i].Netlist, want[i].Netlist) {
				t.Fatalf("point %d (%s): netlist differs from flow.Run's", i, pts[i].Options().Key())
			}
		}
	}
	for _, workers := range []int{1, 4} {
		before := metrics.Get("flow.prefix.reused")
		got, err := New(Config{Workers: workers}).Run(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
		reused := metrics.Get("flow.prefix.reused") - before
		t.Logf("workers %d: %d of %d runs reused a prefix", workers, reused, len(pts))
		if workers == 1 && reused != 28 {
			t.Errorf("workers 1: %d runs reused a prefix, want 28 (4 seeds computed once each)", reused)
		}
		if reused > 28 {
			t.Errorf("workers %d: %d reuses, more than the 28 runs that follow a seed's first", workers, reused)
		}
	}

	t.Run("aborted_run_stores_nothing", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The first point's groute commit cancels the campaign, so its
		// droute never runs.
		eng := New(Config{Workers: 1, Observer: flow.ObserverFunc(func(rec flow.StepRecord) {
			if rec.Step == "groute" {
				cancel()
			}
		})})
		if _, err := eng.Run(ctx, pts[:1]); err != context.Canceled {
			t.Fatalf("aborted campaign: err = %v, want context.Canceled", err)
		}
		eng.obs = nil
		before := metrics.Get("flow.prefix.reused")
		got, err := eng.Run(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
		if reused := metrics.Get("flow.prefix.reused") - before; reused != 28 {
			t.Errorf("after an aborted run: %d reuses, want 28 — the aborted run left a prefix", reused)
		}
	})
}
