package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
)

// result is a compute that returns res and no step records.
func result(res *flow.Result) func() (Entry, error) {
	return func() (Entry, error) { return Entry{Res: res}, nil }
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.probe("a"); ok {
		t.Fatal("phantom entry")
	}
	r1, hit1, _ := c.do("a", result(&flow.Result{AreaUm2: 1}))
	r2, hit2, _ := c.do("a", result(&flow.Result{AreaUm2: 2}))
	if hit1 || !hit2 || r1.Res != r2.Res {
		t.Fatal("second do recomputed")
	}
	if _, ok := c.probe("a"); !ok {
		t.Fatal("entry lost")
	}
	st := c.Stats()
	// do(miss) + do(hit); a probe counts nothing.
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 hit 1 miss", st)
	}
	if st.Entries != 1 {
		t.Errorf("entries %d", st.Entries)
	}
}

// TestCacheEviction: a bounded cache holds exactly its capacity and
// evicts in insertion order, whatever the keys.
func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 40; i++ {
		c.do(fmt.Sprintf("k%d", i), result(&flow.Result{})) //nolint:errcheck
		if st := c.Stats(); st.Entries > 2 {
			t.Fatalf("after %d inserts the cache holds %d entries, want <= 2", i+1, st.Entries)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 38 {
		t.Fatalf("stats %+v, want 2 entries and 38 evictions", st)
	}
	for i := 0; i < 40; i++ {
		if _, ok := c.probe(fmt.Sprintf("k%d", i)); ok != (i >= 38) {
			t.Errorf("k%d resident = %t, want only the newest two", i, ok)
		}
	}
}

// TestBoundedCacheHoldsItsCapacity: an engine on NewCache(2) that runs
// eight cold points one after another keeps the two newest results and no
// more, so a revisit of those two hits and a revisit of the oldest
// computes.
func TestBoundedCacheHoldsItsCapacity(t *testing.T) {
	design := tinyDesign(1)
	pts := Points(design, KeyFor(design), flow.Options{TargetFreqGHz: 0.4}, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	cache := NewCache(2)
	eng := New(Config{Workers: 1, Cache: cache})
	for _, p := range pts {
		warm(t, eng, []Point{p})
	}
	st := cache.Stats()
	if st.Entries != 2 || st.Evictions != int64(len(pts)-2) {
		t.Fatalf("after %d cold points: %+v, want 2 entries and %d evictions", len(pts), st, len(pts)-2)
	}
	warm(t, eng, pts[len(pts)-2:])
	if got := cache.Stats(); got.Hits-st.Hits != 2 || got.Misses != st.Misses {
		t.Fatalf("revisiting the newest two: %+v after %+v, want 2 hits", got, st)
	}
	st = cache.Stats()
	warm(t, eng, pts[:1])
	if got := cache.Stats(); got.Misses-st.Misses != 1 || got.Entries != 2 {
		t.Fatalf("revisiting the oldest: %+v after %+v, want 1 miss and 2 entries", got, st)
	}
}

// TestCacheCoalescesConcurrentComputes: N goroutines asking for the same
// key must trigger exactly one compute.
func TestCacheCoalescesConcurrentComputes(t *testing.T) {
	c := NewCache(0)
	var computes atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]*flow.Result, 8)
	run := func(i int) {
		defer wg.Done()
		ent, _, _ := c.do("shared", func() (Entry, error) {
			close(entered)
			<-gate // hold the computation so others pile up
			computes.Add(1)
			return Entry{Res: &flow.Result{AreaUm2: 42}}, nil
		})
		results[i] = ent.Res
	}
	wg.Add(1)
	go run(0)
	<-entered // the key is in flight; everyone else must coalesce or hit
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go run(i)
	}
	time.Sleep(10 * time.Millisecond) // let the waiters reach the in-flight call
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes for one key", got)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("goroutine %d got a different result pointer", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 7 {
		t.Errorf("stats %+v, want 1 miss / 7 hits", st)
	}
	if st.Coalesced == 0 {
		t.Error("no waiter coalesced onto the in-flight compute")
	}
}

// TestDoRecordedErrorNeverCached: a failed compute must not be
// memoized — the next attempt recomputes — and a success after it is,
// with its step records.
func TestDoRecordedErrorNeverCached(t *testing.T) {
	c := NewCache(0)
	boom := fmt.Errorf("tool crash")
	var calls atomic.Int32
	fail := func() (Entry, error) {
		calls.Add(1)
		return Entry{}, boom
	}

	if _, hit, err := c.do("k", fail); hit || err != boom {
		t.Fatalf("hit=%t err=%v, want miss with error", hit, err)
	}
	if c.Stats().Entries != 0 {
		t.Fatal("error was cached")
	}
	// Second attempt recomputes, and success after failure caches.
	ent, hit, err := c.do("k", func() (Entry, error) {
		calls.Add(1)
		return Entry{Res: &flow.Result{AreaUm2: 2}, Steps: []flow.StepRecord{{Step: "synth"}}}, nil
	})
	if err != nil || hit || ent.Res.AreaUm2 != 2 || len(ent.Steps) != 1 {
		t.Fatalf("recovery compute: res=%+v steps=%d hit=%t err=%v", ent.Res, len(ent.Steps), hit, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2", calls.Load())
	}
	got, hit, err := c.do("k", fail)
	if err != nil || !hit || got.Res.AreaUm2 != 2 || len(got.Steps) != 1 {
		t.Fatalf("post-recovery lookup: res=%+v hit=%t err=%v", got.Res, hit, err)
	}
	if calls.Load() != 2 {
		t.Fatal("cached entry recomputed")
	}
}

// TestDoRecordedCoalescedError: concurrent callers coalesced behind a
// failing compute all receive the error; none of them is handed a nil
// result marked as a hit.
func TestDoRecordedCoalescedError(t *testing.T) {
	c := NewCache(0)
	boom := fmt.Errorf("license lost")
	started := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int32

	go c.do("k", func() (Entry, error) { //nolint:errcheck
		computes.Add(1)
		close(started)
		<-release
		return Entry{}, boom
	})
	<-started

	const waiters = 4
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hits[i], errs[i] = c.do("k", func() (Entry, error) {
				computes.Add(1)
				return Entry{}, boom
			})
		}(i)
	}
	// Give the waiters a moment to pile up behind the inflight call,
	// then let it fail.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if hits[i] {
			t.Fatalf("waiter %d reported a hit on a failed compute", i)
		}
		if errs[i] != boom {
			t.Fatalf("waiter %d err = %v, want the compute error", i, errs[i])
		}
	}
	if c.Stats().Entries != 0 {
		t.Fatal("failed compute left a cache entry")
	}
}

// TestCacheWaiterOutlivesCancelledLeader: a caller coalesced onto a
// compute whose own caller was cancelled did not inherit that
// cancellation — it looks again, computes, and returns its own result.
// The leader's compute is held until the waiter is provably parked on it.
func TestCacheWaiterOutlivesCancelledLeader(t *testing.T) {
	c := NewCache(0)
	waited := make(chan struct{})
	var res Entry
	var err error
	_, _, lerr := c.do("k", func() (Entry, error) {
		go func() {
			defer close(waited)
			res, _, err = c.do("k", result(&flow.Result{AreaUm2: 2}))
		}()
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(revisitDeadline); !parkedInCacheDo(buf); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("the waiter never coalesced onto the in-flight compute")
				break
			}
		}
		return Entry{}, context.Canceled
	})
	<-waited
	if lerr != context.Canceled {
		t.Fatalf("leader err = %v, want context.Canceled", lerr)
	}
	if err != nil || res.Res == nil || res.Res.AreaUm2 != 2 {
		t.Fatalf("waiter got (%+v, %v), want its own result and no error", res.Res, err)
	}
	if got, ok := c.probe("k"); !ok || got.Res != res.Res {
		t.Fatal("the waiter's compute was not cached")
	}
}
