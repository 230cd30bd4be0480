package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/netlist"
)

func tinyDesign(seed int64) *netlist.Netlist {
	return netlist.Generate(cellib.Default14nm(), netlist.Tiny(seed))
}

func sweepPoints(design *netlist.Netlist, key string, nFreq, nSeeds int) []Point {
	var pts []Point
	for f := 0; f < nFreq; f++ {
		base := flow.Options{TargetFreqGHz: 0.3 + 0.1*float64(f)}
		var seeds []int64
		for s := 0; s < nSeeds; s++ {
			seeds = append(seeds, int64(1000*f+s))
		}
		pts = append(pts, Points(design, key, base, seeds)...)
	}
	return pts
}

// TestParallelMatchesSerialReference is the engine's core contract:
// whatever the scheduling order, whatever the worker count, with or
// without the memo cache, the results are bit-identical to the plain
// serial loop. Run under -race this also proves the fan-out is clean.
func TestParallelMatchesSerialReference(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 3, 4)

	// The serial reference: the loop every experiment harness used to
	// run inline.
	want := make([]*flow.Result, len(pts))
	for i, p := range pts {
		want[i] = flow.Run(p.Design(), p.Options())
	}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"serial_engine", Config{Workers: 1}},
		{"parallel", Config{Workers: 4}},
		{"parallel_cached", Config{Workers: 4, Cache: NewCache(0)}},
		{"parallel_tiny_cache", Config{Workers: 3, Cache: NewCache(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := New(tc.cfg).Run(context.Background(), pts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("point %d (%s) diverged from serial reference",
						i, pts[i].Options().Key())
				}
			}
		})
	}
}

// TestMemoizationSharesAcrossStudies models two studies hitting the same
// option points: the second costs nothing and returns identical results.
func TestMemoizationSharesAcrossStudies(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 2, 3)
	cache := NewCache(0)
	eng := New(Config{Workers: 2, Cache: cache})

	first, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != int64(len(pts)) {
		t.Errorf("misses %d, want %d", st.Misses, len(pts))
	}
	if st.Hits < int64(len(pts)) {
		t.Errorf("hits %d, want >= %d (second study should be all hits)", st.Hits, len(pts))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("point %d: second study did not reuse the cached result", i)
		}
	}
}

// TestDistinctDesignsNeverCollide guards the design half of the cache
// key: same options, different design contents, different results.
func TestDistinctDesignsNeverCollide(t *testing.T) {
	d1, d2 := tinyDesign(1), tinyDesign(2)
	cache := NewCache(0)
	eng := New(Config{Workers: 2, Cache: cache})
	opts := flow.Options{TargetFreqGHz: 0.4, Seed: 5}
	pts := []Point{
		NewPoint(d1, KeyFor(d1), opts),
		NewPoint(d2, KeyFor(d2), opts),
	}
	res, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] == res[1] {
		t.Fatal("different designs shared one cache entry")
	}
	if cache.Stats().Misses != 2 {
		t.Errorf("misses %d, want 2", cache.Stats().Misses)
	}
}

func TestEmptyDesignKeyBypassesCache(t *testing.T) {
	design := tinyDesign(1)
	cache := NewCache(0)
	eng := New(Config{Workers: 1, Cache: cache})
	pts := Points(design, "", flow.Options{TargetFreqGHz: 0.4}, []int64{1, 1})
	if _, err := eng.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("cache touched despite empty design key: %+v", st)
	}
}

// TestCampaignAbort is the doomed-run STOP path: cancelling the context
// abandons unstarted points and reports the cancellation.
func TestCampaignAbort(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, "", 4, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(Config{Workers: 2}).Run(ctx, pts)
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	nils := 0
	for _, r := range res {
		if r == nil {
			nils++
		}
	}
	if nils == 0 {
		t.Error("cancelled campaign completed every point")
	}
}

func TestObserverSeesUncachedRuns(t *testing.T) {
	design := tinyDesign(1)
	var steps int
	obs := flow.ObserverFunc(func(rec flow.StepRecord) { steps++ })
	eng := New(Config{Workers: 1, Observer: obs})
	pts := Points(design, "", flow.Options{TargetFreqGHz: 0.4}, []int64{1, 2})
	if _, err := eng.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if steps != 2*6 {
		t.Errorf("observer saw %d step records, want 12 (6 per run)", steps)
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("positive passthrough broken")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("auto worker count must be >= 1")
	}
}

// TestFaultRetryReproducesFaultFreeResults is the fault-tolerance
// contract: with injected crashes/license drops and enough retries, the
// campaign lands on results bit-identical to the fault-free run — at
// any worker count, with or without the memo cache.
func TestFaultRetryReproducesFaultFreeResults(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 2, 3)

	want, err := New(Config{Workers: 2}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}

	inj := &flow.FaultInjector{Seed: 7, CrashRate: 0.12, LicenseDropRate: 0.08}
	for _, workers := range []int{1, 4, 8} {
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d cached=%t", workers, cached)
			cfg := Config{Workers: workers, Faults: inj, Retry: Retry{Max: 25}}
			if cached {
				cfg.Cache = NewCache(0)
			}
			got, err := New(cfg).Run(context.Background(), pts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range want {
				if got[i] == nil {
					t.Fatalf("%s: point %d missing", name, i)
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: point %d diverged from fault-free reference", name, i)
				}
			}
		}
	}
}

// TestRetryExhaustionFailsPointWithoutCaching: a point whose every
// attempt faults must come back nil with a RunError — and must never be
// served from the cache as a failed result.
func TestRetryExhaustionFailsPointWithoutCaching(t *testing.T) {
	design := tinyDesign(1)
	cache := NewCache(0)
	inj := &flow.FaultInjector{Seed: 1, CrashRate: 1} // every boundary crashes
	eng := New(Config{Workers: 2, Cache: cache, Faults: inj, Retry: Retry{Max: 3}})
	pts := Points(design, KeyFor(design), flow.Options{TargetFreqGHz: 0.4}, []int64{1, 2})

	res, err := eng.Run(context.Background(), pts)
	var re *RunError
	if !errors.As(err, &re) || len(re.Failed) != 2 {
		t.Fatalf("err = %v, want RunError with 2 failures", err)
	}
	for i, r := range res {
		if r != nil {
			t.Fatalf("failed point %d recorded a result", i)
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d entries for failed-only runs", cache.Len())
	}
	// The same engine without faults must now compute cleanly — nothing
	// poisoned the cache.
	okEng := New(Config{Workers: 2, Cache: cache})
	ok, err := okEng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ok {
		if r == nil {
			t.Fatalf("point %d still failing after faults removed", i)
		}
	}
}

// TestCachedPointsReplayStepRecords is the fix for the documented
// footgun: with Cache and Observer both set, memoized points must
// replay the step records captured when their result was computed, so
// every point delivers one record set.
func TestCachedPointsReplayStepRecords(t *testing.T) {
	design := tinyDesign(1)
	var mu sync.Mutex
	perSeed := map[int64]int{}
	obs := flow.ObserverFunc(func(rec flow.StepRecord) {
		mu.Lock()
		if rec.Step == "droute" {
			perSeed[rec.RunSeed]++
		}
		mu.Unlock()
	})
	eng := New(Config{Workers: 2, Cache: NewCache(0), Observer: obs})
	pts := Points(design, KeyFor(design), flow.Options{TargetFreqGHz: 0.4}, []int64{1, 2})

	replaysBefore := metrics.Get("campaign.cache.replayed")
	// Three campaigns over the same points: 1 computed + 2 memoized.
	for round := 0; round < 3; round++ {
		if _, err := eng.Run(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
	}
	for seed, n := range perSeed {
		if n != 3 {
			t.Errorf("seed %d delivered %d droute records, want 3 (1 computed + 2 replayed)", seed, n)
		}
	}
	if got := metrics.Get("campaign.cache.replayed") - replaysBefore; got != 4 {
		t.Errorf("observer_replays counter moved by %d, want 4 (2 points x 2 memoized rounds)", got)
	}
}

// TestAbandonedPointsNeverRecorded: a cancelled campaign's abandoned
// slots stay nil even though the result type's zero value would be a
// plausible *flow.Result had MapCtx fabricated zero slots.
func TestAbandonedPointsNeverRecorded(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, "", 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(Config{Workers: 2}).Run(ctx, pts)
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	for i, r := range res {
		if r != nil {
			t.Fatalf("abandoned point %d recorded result %+v", i, r)
		}
	}
}

// TestFaultErrorMatchableThroughRunError: the aggregate error a failed
// campaign returns must unwrap to the per-point tool faults, so callers
// at any layer (flow, campaign, cmd) can errors.As for *flow.FaultError
// instead of string-matching.
func TestFaultErrorMatchableThroughRunError(t *testing.T) {
	design := tinyDesign(1)
	pts := Points(design, KeyFor(design), flow.Options{TargetFreqGHz: 0.4}, []int64{1})
	inj := &flow.FaultInjector{Seed: 1, CrashRate: 1} // every boundary crashes
	_, err := New(Config{Workers: 1, Faults: inj}).Run(context.Background(), pts)
	var fe *flow.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v; *flow.FaultError not matchable through RunError", err)
	}
	if fe.Kind != flow.FaultCrash || fe.Stage == "" {
		t.Fatalf("fault = %+v, want a staged crash", fe)
	}
}
