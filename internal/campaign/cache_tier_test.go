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
// through before do returns.
func TestCacheTierLoadAndWriteThrough(t *testing.T) {
	tier := newMapTier()
	c := NewCache(0)
	c.SetTier(tier)

	computes := 0
	want := &flow.Result{AreaUm2: 42}
	steps := []flow.StepRecord{{Step: "synth"}}
	ent, hit, err := c.do("k1", func() (Entry, error) {
		computes++
		return Entry{Res: want, Steps: steps}, nil
	})
	if err != nil || hit || ent.Res != want || computes != 1 {
		t.Fatalf("cold compute: res=%v hit=%t computes=%d err=%v", ent.Res, hit, computes, err)
	}
	if tier.stores != 1 {
		t.Fatalf("write-through count = %d, want 1", tier.stores)
	}

	// A second cache (another "node") sharing the tier must serve the key
	// from the tier without computing, with the steps intact.
	c2 := NewCache(0)
	c2.SetTier(tier)
	ent2, hit2, err := c2.do("k1", func() (Entry, error) {
		t.Fatal("tier hit must not compute")
		return Entry{}, nil
	})
	if err != nil || !hit2 || ent2.Res.AreaUm2 != 42 || len(ent2.Steps) != 1 {
		t.Fatalf("tier hit: res=%v hit=%t steps=%d err=%v", ent2.Res, hit2, len(ent2.Steps), err)
	}
	st := c2.Stats()
	if st.TierHits != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("tier-hit stats = %+v", st)
	}

	// Now in c2's L1: the tier is not consulted again.
	loadsBefore := tier.loads
	if _, hit, _ := c2.do("k1", nil); !hit {
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
	_, _, err := c.do("bad", func() (Entry, error) {
		return Entry{}, fmt.Errorf("tool crashed")
	})
	if err == nil {
		t.Fatal("compute error swallowed")
	}
	if l1 := c.Stats().Entries; tier.stores != 0 || len(tier.entries) != 0 || l1 != 0 {
		t.Fatalf("failed compute cached: tier=%d l1=%d", len(tier.entries), l1)
	}
}

// TestCacheStatsCoherentUnderStorm hammers do, the revisit pass's probe
// and count, and Stats from many goroutines (run under -race) on a bounded
// cache, and checks every snapshot satisfies the counter invariants and
// the bound — the regression test for the torn reads the old per-atomic
// counters allowed.
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
				if st.Entries > 64 {
					t.Errorf("a cache of capacity 64 holds %d entries", st.Entries)
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
				if i%3 == 0 {
					if _, ok := c.probe(key); ok {
						c.countHits(1, false)
					}
					continue
				}
				c.do(key, result(res)) //nolint:errcheck
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
