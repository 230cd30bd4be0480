package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
)

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(0)
	mk := func() *flow.Result { return &flow.Result{AreaUm2: 1} }
	if _, ok := c.Get("a"); ok {
		t.Fatal("phantom entry")
	}
	r1 := c.Do("a", mk)
	r2 := c.Do("a", mk)
	if r1 != r2 {
		t.Fatal("second Do recomputed")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry lost")
	}
	st := c.Stats()
	// Get(miss) + Do(miss) + Do(hit) + Get(hit).
	if st.Misses != 2 || st.Hits != 2 {
		t.Errorf("stats %+v, want 2 hits 2 misses", st)
	}
	if st.Entries != 1 {
		t.Errorf("entries %d", st.Entries)
	}
	if got := c.HitRate(); got != 0.5 {
		t.Errorf("hit rate %v", got)
	}
}

func TestCacheEviction(t *testing.T) {
	// Capacity below shardCount clamps to one entry per shard; keys that
	// land on the same shard evict FIFO.
	c := NewCache(1)
	var aKey, bKey string
	// Find two keys on the same shard.
	base := c.shard("k0")
	aKey = "k0"
	for i := 1; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == base {
			bKey = k
			break
		}
	}
	c.Do(aKey, func() *flow.Result { return &flow.Result{} })
	c.Do(bKey, func() *flow.Result { return &flow.Result{} })
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
	if _, ok := c.Get(aKey); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, ok := c.Get(bKey); !ok {
		t.Error("newest entry missing")
	}
}

func TestCacheSharding(t *testing.T) {
	c := NewCache(0)
	used := map[*cacheShard]bool{}
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("key-%d", i)
		used[c.shard(k)] = true
		c.Do(k, func() *flow.Result { return &flow.Result{} })
	}
	if len(used) < shardCount/2 {
		t.Errorf("only %d of %d shards used by 256 keys — bad spread", len(used), shardCount)
	}
	if c.Len() != 256 {
		t.Errorf("len %d", c.Len())
	}

	// The real key shape: design key, NUL, canonical options. The 64
	// keys of the memo_revisit benchmark (tiny design, 8 frequencies x 8
	// seeds, its profiled seed 7) differ only in a few digits; 64 keys
	// cannot be relied on to reach all 32 shards under any hash that
	// spreads like a random one (~4 stay empty on average), so they are
	// held to the load bound and the 20 000 random option keys to both.
	d := tinyDesign(1)
	var memo []string
	for _, f := range []float64{0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65} {
		for _, p := range Points(d, KeyFor(d), flow.Options{SynthEffort: 2, TargetFreqGHz: f}, []int64{8, 9, 10, 11, 12, 13, 14, 15}) {
			memo = append(memo, p.CacheKey())
		}
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]string, 20000)
	for i := range random {
		random[i] = NewPoint(d, KeyFor(d), flow.Options{
			TargetFreqGHz: 0.2 + rng.Float64(), Seed: rng.Int63(),
			SynthEffort: rng.Intn(4), Utilization: 0.5 + 0.4*rng.Float64(),
			PlaceMoves: 20 + rng.Intn(100), RouteIters: rng.Intn(20),
		}).CacheKey()
	}
	for _, set := range []struct {
		name     string
		keys     []string
		reachAll bool
	}{{"memo_revisit", memo, false}, {"random", random, true}} {
		var load [shardCount]int
		for _, k := range set.keys {
			load[shardHash(k)&(shardCount-1)]++
		}
		limit := 2 * len(set.keys) / shardCount
		for i, n := range load {
			if n > limit {
				t.Errorf("%s keys: shard %d holds %d of %d, above twice its fair share (%d)", set.name, i, n, len(set.keys), limit)
			}
			if n == 0 && set.reachAll {
				t.Errorf("%s keys: shard %d is never used", set.name, i)
			}
		}
	}
}

// TestShardHashPinned: the shard of a key is a pure function of its
// bytes, the same in every process, so a bounded cache evicts the same
// entries everywhere. Every byte, the tail included, moves the hash.
func TestShardHashPinned(t *testing.T) {
	for _, tc := range []struct {
		key  string
		want uint64
	}{
		{"", 0x0},
		{"a", 0x633b2c11c4f11877},
		{"tiny#0827b9de7477fbed\x00f=0.3 seed=0", 0xa39aaf1ae569a131},
	} {
		if got := shardHash(tc.key); got != tc.want {
			t.Errorf("shardHash(%q) = %#x, want %#x", tc.key, got, tc.want)
		}
	}
	key := []byte("tiny#0827b9de7477fbed\x00f=0.3 seed=0 se=0")
	base := shardHash(string(key))
	for i := range key {
		key[i] ^= 1
		if shardHash(string(key)) == base {
			t.Errorf("flipping byte %d of %d leaves the hash unchanged", i, len(key))
		}
		key[i] ^= 1
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
		results[i] = c.Do("shared", func() *flow.Result {
			close(entered)
			<-gate // hold the computation so others pile up
			computes.Add(1)
			return &flow.Result{AreaUm2: 42}
		})
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
// memoized — the retry loop depends on the next attempt recomputing —
// and coalesced waiters must see the error rather than a phantom hit.
func TestDoRecordedErrorNeverCached(t *testing.T) {
	c := NewCache(0)
	boom := fmt.Errorf("tool crash")
	var calls atomic.Int32
	fail := func() (*flow.Result, []flow.StepRecord, error) {
		calls.Add(1)
		return nil, nil, boom
	}

	if _, _, hit, err := c.DoRecorded("k", fail); hit || err != boom {
		t.Fatalf("hit=%t err=%v, want miss with error", hit, err)
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	// Second attempt recomputes, and success after failure caches.
	res, steps, hit, err := c.DoRecorded("k", func() (*flow.Result, []flow.StepRecord, error) {
		calls.Add(1)
		return &flow.Result{AreaUm2: 2}, []flow.StepRecord{{Step: "synth"}}, nil
	})
	if err != nil || hit || res.AreaUm2 != 2 || len(steps) != 1 {
		t.Fatalf("recovery compute: res=%+v steps=%d hit=%t err=%v", res, len(steps), hit, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2", calls.Load())
	}
	got, gotSteps, hit, err := c.DoRecorded("k", fail)
	if err != nil || !hit || got.AreaUm2 != 2 || len(gotSteps) != 1 {
		t.Fatalf("post-recovery lookup: res=%+v hit=%t err=%v", got, hit, err)
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

	go c.DoRecorded("k", func() (*flow.Result, []flow.StepRecord, error) {
		computes.Add(1)
		close(started)
		<-release
		return nil, nil, boom
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
			_, _, hits[i], errs[i] = c.DoRecorded("k", func() (*flow.Result, []flow.StepRecord, error) {
				computes.Add(1)
				return nil, nil, boom
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
	if c.Len() != 0 {
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
	var res *flow.Result
	var err error
	_, _, _, lerr := c.DoRecorded("k", func() (*flow.Result, []flow.StepRecord, error) {
		go func() {
			defer close(waited)
			res, _, _, err = c.DoRecorded("k", func() (*flow.Result, []flow.StepRecord, error) {
				return &flow.Result{AreaUm2: 2}, nil, nil
			})
		}()
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(revisitDeadline); !parkedInCacheDo(buf); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("the waiter never coalesced onto the in-flight compute")
				break
			}
		}
		return nil, nil, context.Canceled
	})
	<-waited
	if lerr != context.Canceled {
		t.Fatalf("leader err = %v, want context.Canceled", lerr)
	}
	if err != nil || res == nil || res.AreaUm2 != 2 {
		t.Fatalf("waiter got (%+v, %v), want its own result and no error", res, err)
	}
	if got, ok := c.Get("k"); !ok || got != res {
		t.Fatal("the waiter's compute was not cached")
	}
}
