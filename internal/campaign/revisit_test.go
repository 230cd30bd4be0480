package campaign

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// The revisit path: Engine.run serves what L1 already holds on the
// caller's goroutine and hands only the misses to the license pool.
// None of these tests sleeps; the timeouts below only turn a deadlock
// (the failure being tested for) into a message.

const revisitDeadline = 30 * time.Second

// warm runs pts once on eng so that every later visit is a hit.
func warm(t *testing.T, eng *Engine, pts []Point) []*flow.Result {
	t.Helper()
	res, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func samePointers(t *testing.T, got, want []*flow.Result) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: revisit returned %p, the memoized result is %p", i, got[i], want[i])
		}
	}
}

// TestRevisitHoldsNoLicense: with the only license held by a parked
// flow, a Run over cached points still returns — a hit is a lookup, not
// a tool run — and is no pool task.
func TestRevisitHoldsNoLicense(t *testing.T) {
	design := tinyDesign(1)
	key := KeyFor(design)
	const parkSeed = 99
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	obs := flow.ObserverFunc(func(rec flow.StepRecord) {
		if rec.RunSeed == parkSeed {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})
	eng := New(Config{Workers: 1, Cache: NewCache(0), Observer: obs})
	pts := Points(design, key, flow.Options{TargetFreqGHz: 0.4}, []int64{1, 2, 3, 4})
	first := warm(t, eng, pts)

	holder := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), Points(design, key, flow.Options{TargetFreqGHz: 0.4}, []int64{parkSeed}))
		holder <- err
	}()
	<-parked // the one license is now held until release

	_, tasksBefore, _ := eng.Pool().Stats()
	type outcome struct {
		res []*flow.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.Run(context.Background(), pts)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		samePointers(t, o.res, first)
	case <-time.After(revisitDeadline):
		close(release)
		t.Fatal("an all-hit Run queued behind the flow holding the license")
	}
	if _, tasks, _ := eng.Pool().Stats(); tasks != tasksBefore {
		t.Errorf("all-hit Run moved sched task total %d -> %d; hits are not pool tasks", tasksBefore, tasks)
	}
	close(release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
}

// TestRevisitReplaysInPointOrder: an all-hit Run delivers to the
// Observer, in point order, exactly the records each point's compute
// delivered.
func TestRevisitReplaysInPointOrder(t *testing.T) {
	design := tinyDesign(1)
	var mu sync.Mutex
	var seen []flow.StepRecord
	obs := flow.ObserverFunc(func(rec flow.StepRecord) {
		mu.Lock()
		seen = append(seen, rec)
		mu.Unlock()
	})
	eng := New(Config{Workers: 2, Cache: NewCache(0), Observer: obs})
	pts := sweepPoints(design, KeyFor(design), 2, 3)
	first := warm(t, eng, pts)

	// The computing run interleaves points; within one run records stay
	// ordered, so group them by seed (unique per point here).
	computed := map[int64][]flow.StepRecord{}
	for _, rec := range seen {
		computed[rec.RunSeed] = append(computed[rec.RunSeed], rec)
	}
	var want []flow.StepRecord
	for _, p := range pts {
		if len(computed[p.Options().Seed]) == 0 {
			t.Fatalf("no records computed for seed %d", p.Options().Seed)
		}
		want = append(want, computed[p.Options().Seed]...)
	}

	seen = nil
	replayed := metrics.Get("campaign.cache.replayed")
	res, err := eng.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	samePointers(t, res, first)
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("replay differs from the computed records in point order: got %d records, want %d", len(seen), len(want))
	}
	if got := metrics.Get("campaign.cache.replayed") - replayed; got != int64(len(pts)) {
		t.Errorf("campaign.cache.replayed moved by %d, want %d", got, len(pts))
	}
}

// TestRevisitSpans: under an armed tracer an all-hit Run of n points is
// one campaign.run and n campaign.point spans, all cache_hit, and nothing
// from the scheduler.
func TestRevisitSpans(t *testing.T) {
	design := tinyDesign(1)
	eng := New(Config{Workers: 2, Cache: NewCache(0)})
	pts := sweepPoints(design, KeyFor(design), 2, 3)
	warm(t, eng, pts)

	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()
	if _, err := eng.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	trace.Disable()

	spans, _ := tr.Snapshot()
	byName := map[string]int{}
	for _, sp := range spans {
		byName[sp.Name]++
		if strings.HasPrefix(sp.Name, "sched.") {
			t.Errorf("all-hit Run emitted a %s span", sp.Name)
		}
		if sp.Name != "campaign.run" && sp.Outcome != trace.CacheHit {
			t.Errorf("span %s ended %q, want %q", sp.Name, sp.Outcome, trace.CacheHit)
		}
	}
	want := map[string]int{"campaign.run": 1, "campaign.point": len(pts)}
	if !reflect.DeepEqual(byName, want) {
		t.Errorf("spans %v, want %v", byName, want)
	}
}

// TestRevisitCancelledServesNothing: a context cancelled on entry gets
// ctx.Err(), every slot nil, and no hit counted — cached or not.
func TestRevisitCancelledServesNothing(t *testing.T) {
	design := tinyDesign(1)
	eng := New(Config{Workers: 2, Cache: NewCache(0)})
	pts := sweepPoints(design, KeyFor(design), 2, 2)
	warm(t, eng, pts)

	before, hitsBefore := eng.Cache().Stats(), metrics.Get("campaign.cache.hit")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.Run(ctx, pts)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range res {
		if r != nil {
			t.Errorf("cancelled Run served point %d", i)
		}
	}
	if after := eng.Cache().Stats(); after != before {
		t.Errorf("cancelled Run moved the cache counters: %+v -> %+v", before, after)
	}
	if got := metrics.Get("campaign.cache.hit"); got != hitsBefore {
		t.Errorf("campaign.cache.hit moved by %d", got-hitsBefore)
	}
}

// parkedInCacheDo reports whether some goroutine is waiting on an
// in-flight compute inside Cache.do — the one state of a coalescing
// waiter nothing else exposes. buf holds the goroutine dump.
func parkedInCacheDo(buf []byte) bool {
	dump := buf[:runtime.Stack(buf, true)]
	return bytes.Contains(dump, []byte("[chan receive]:\nrepro/internal/campaign.(*Cache).do("))
}

// TestRevisitDuplicateKeyComputesOnce: the same key twice in one cold
// Run misses the pass twice, and the pool's singleflight still computes
// it once — the flow is held until its twin is provably waiting on it.
func TestRevisitDuplicateKeyComputesOnce(t *testing.T) {
	design := tinyDesign(1)
	var once sync.Once
	var runs int
	obs := flow.ObserverFunc(func(rec flow.StepRecord) {
		if rec.Step == "synth" {
			runs++ // computes and replays both deliver it; one goroutine at a time here
		}
		once.Do(func() {
			buf := make([]byte, 1<<20)
			for deadline := time.Now().Add(revisitDeadline); !parkedInCacheDo(buf); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("the duplicate never coalesced onto the in-flight compute")
					return
				}
			}
		})
	})
	eng := New(Config{Workers: 2, Cache: NewCache(0), Observer: obs})
	pt := Points(design, KeyFor(design), flow.Options{TargetFreqGHz: 0.4}, []int64{7})[0]
	res, err := eng.Run(context.Background(), []Point{pt, pt})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] == nil || res[0] != res[1] {
		t.Fatalf("duplicates got %p and %p, want one shared result", res[0], res[1])
	}
	st := eng.Cache().Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Coalesced != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 1 miss, 1 coalesced hit, 1 entry", st)
	}
	if runs != 2 {
		t.Errorf("observer saw %d record sets, want 2 (one computed, one replayed)", runs)
	}
}

// TestRevisitSurvivesEviction: in a cache of one entry, the entry the
// pass served is evicted by a miss of the same Run. Every slot must still
// hold the right result, and the evicted point recomputes to the same
// value on its next visit.
func TestRevisitSurvivesEviction(t *testing.T) {
	design := tinyDesign(1)
	cache := NewCache(1)
	pts := Points(design, KeyFor(design), flow.Options{TargetFreqGHz: 0.4}, []int64{1, 2})
	a, b := pts[0], pts[1]
	ref, err := New(Config{Workers: 1}).Run(context.Background(), []Point{a, b})
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want *flow.Result) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs from the uncached reference", what)
		}
	}

	eng := New(Config{Workers: 2, Cache: cache})
	cachedA := warm(t, eng, []Point{a})[0]
	res, err := eng.Run(context.Background(), []Point{b, a, b}) // pass: miss, hit, miss
	if err != nil {
		t.Fatal(err)
	}
	if res[1] != cachedA {
		t.Errorf("the pass did not serve a from L1")
	}
	same("b", res[0], ref[1])
	same("a", res[1], ref[0])
	same("b again", res[2], ref[1])
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("nothing was evicted (%+v); the test did not exercise eviction", st)
	}
	// a was evicted after the pass served it: the next visit recomputes
	// it, to the same value.
	again := warm(t, eng, []Point{a})[0]
	if again == cachedA {
		t.Error("a survived eviction")
	}
	same("a recomputed", again, ref[0])
}

// revisitFixture is the memo_revisit shape: 64 tiny points, all hits.
func revisitFixture(tb testing.TB) (*Engine, []Point) {
	design := tinyDesign(1)
	eng := New(Config{Workers: 2, Cache: NewCache(0)})
	pts := sweepPoints(design, KeyFor(design), 8, 8)
	if _, err := eng.Run(context.Background(), pts); err != nil {
		tb.Fatal(err)
	}
	return eng, pts
}

// TestRevisitAllocs pins the hit path's allocations to a per-Run
// constant: the results slice and the pass's bookkeeping, the same at 64
// points as at 640. A memo key rebuilt per visit (two strings), a
// goroutine per point or a Sprintf in the key grows with the point count
// and fails here rather than in a benchmark nobody reran.
func TestRevisitAllocs(t *testing.T) {
	const perRun = 8
	design := tinyDesign(1)
	ctx := context.Background()
	for _, seeds := range []int{8, 80} {
		eng := New(Config{Workers: 2, Cache: NewCache(0)})
		pts := sweepPoints(design, KeyFor(design), 8, seeds)
		// Seed L1 directly: the visits, not the flows, are under test.
		for _, p := range pts {
			eng.Cache().do(p.CacheKey(), result(&flow.Result{})) //nolint:errcheck
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := eng.Run(ctx, pts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d points: %.0f allocations a Run", len(pts), got)
		if got > perRun {
			t.Errorf("an all-hit %d-point Run allocates %.0f times, want <= %d whatever the point count", len(pts), got, perRun)
		}
	}
}

func BenchmarkEngineRevisit(b *testing.B) {
	eng, pts := revisitFixture(b)
	ctx := context.Background()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, pts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	visits := float64(b.N * len(pts))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/visits, "ns/visit")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/visits, "allocs/visit")
}
