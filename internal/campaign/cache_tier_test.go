package campaign

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/flow"
)

// mapTier is an in-memory Tier double with call accounting.
type mapTier struct {
	mu      sync.Mutex
	entries map[string]Entry
	loads   int
	stores  int
}

func newMapTier() *mapTier { return &mapTier{entries: map[string]Entry{}} }

func (t *mapTier) Load(key string) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loads++
	e, ok := t.entries[key]
	return e, ok
}

func (t *mapTier) Store(e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stores++
	if _, exists := t.entries[e.Key]; !exists {
		t.entries[e.Key] = e
	}
}

// TestCacheTierLoadAndWriteThrough: an L1 miss consults the tier (a hit
// there fills L1 and skips the compute), and a fresh compute is written
// through before DoRecorded returns.
func TestCacheTierLoadAndWriteThrough(t *testing.T) {
	tier := newMapTier()
	c := NewCache(0)
	c.SetTier(tier)

	computes := 0
	want := &flow.Result{AreaUm2: 42}
	steps := []flow.StepRecord{{Step: "synth"}}
	res, _, hit, err := c.DoRecorded("k1", func() (*flow.Result, []flow.StepRecord, error) {
		computes++
		return want, steps, nil
	})
	if err != nil || hit || res != want || computes != 1 {
		t.Fatalf("cold compute: res=%v hit=%t computes=%d err=%v", res, hit, computes, err)
	}
	if tier.stores != 1 {
		t.Fatalf("write-through count = %d, want 1", tier.stores)
	}

	// A second cache (another "node") sharing the tier must serve the key
	// from the tier without computing, with the steps intact.
	c2 := NewCache(0)
	c2.SetTier(tier)
	res2, steps2, hit2, err := c2.DoRecorded("k1", func() (*flow.Result, []flow.StepRecord, error) {
		t.Fatal("tier hit must not compute")
		return nil, nil, nil
	})
	if err != nil || !hit2 || res2.AreaUm2 != 42 || len(steps2) != 1 {
		t.Fatalf("tier hit: res=%v hit=%t steps=%d err=%v", res2, hit2, len(steps2), err)
	}
	st := c2.Stats()
	if st.TierHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("tier-hit stats = %+v", st)
	}

	// Now in c2's L1: the tier is not consulted again.
	loadsBefore := tier.loads
	if _, _, hit, _ := c2.DoRecorded("k1", nil); !hit {
		t.Fatal("L1 must serve the filled entry")
	}
	if tier.loads != loadsBefore {
		t.Fatal("L1 hit must not touch the tier")
	}
}

// TestCacheTierFailedComputeNotStored: compute errors must reach neither
// L1 nor the tier.
func TestCacheTierFailedComputeNotStored(t *testing.T) {
	tier := newMapTier()
	c := NewCache(0)
	c.SetTier(tier)
	_, _, _, err := c.DoRecorded("bad", func() (*flow.Result, []flow.StepRecord, error) {
		return nil, nil, fmt.Errorf("tool crashed")
	})
	if err == nil {
		t.Fatal("compute error swallowed")
	}
	if tier.stores != 0 || len(tier.entries) != 0 || c.Len() != 0 {
		t.Fatalf("failed compute cached: tier=%d l1=%d", len(tier.entries), c.Len())
	}
}

// TestCacheStatsCoherentUnderStorm hammers Get/Put/DoRecorded/Stats/
// HitRate from many goroutines (run under -race) and checks every
// snapshot satisfies the counter invariants — the regression test for
// the torn reads the old per-atomic counters allowed.
func TestCacheStatsCoherentUnderStorm(t *testing.T) {
	c := NewCache(64)
	res := &flow.Result{AreaUm2: 1}
	const (
		workers = 8
		iters   = 300
	)
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot readers: every snapshot must be internally consistent,
	// and the counters must be monotone between consecutive snapshots.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var prev CacheStats
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Stats()
				if st.Coalesced > st.Hits {
					t.Errorf("snapshot torn: coalesced %d > hits %d", st.Coalesced, st.Hits)
					return
				}
				if st.TierHits > st.Hits {
					t.Errorf("snapshot torn: tier hits %d > hits %d", st.TierHits, st.Hits)
					return
				}
				if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Evictions < prev.Evictions {
					t.Errorf("counters went backwards: %+v after %+v", st, prev)
					return
				}
				if hr := c.HitRate(); hr < 0 || hr > 1 {
					t.Errorf("hit rate %f out of [0,1]", hr)
					return
				}
				prev = st
			}
		}()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", i%97)
				switch i % 3 {
				case 0:
					c.Get(key)
				case 1:
					c.Do(key, func() *flow.Result { return res })
				default:
					c.DoRecorded(key, func() (*flow.Result, []flow.StepRecord, error) { //nolint:errcheck
						return res, nil, nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("storm performed no lookups")
	}
}
