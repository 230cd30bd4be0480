package campaign

import (
	"context"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/metrics"
)

// TestPointKeyIdentity: a point's memo key is its design key, a NUL and
// its canonical options key, built once by NewPoint; without a design key
// the point is uncacheable and its key empty.
func TestPointKeyIdentity(t *testing.T) {
	design := tinyDesign(1)
	key := KeyFor(design)
	opts := flow.Options{TargetFreqGHz: 0.45, Seed: 3, SynthEffort: 2}
	pts := append(Points(design, key, opts, []int64{1, 2, 3}), NewPoint(design, key, opts))
	for i, p := range pts {
		if want := key + "\x00" + p.Options().Key(); p.CacheKey() != want {
			t.Errorf("point %d: key %q, want %q", i, p.CacheKey(), want)
		}
		if p.Design() != design {
			t.Errorf("point %d: design %p, want %p", i, p.Design(), design)
		}
	}
	if got := pts[3].Options(); got != opts {
		t.Errorf("NewPoint options %+v, want %+v", got, opts)
	}
	if got := Points(design, key, opts, []int64{9})[0].Options().Seed; got != 9 {
		t.Errorf("Points seed %d, want 9", got)
	}
	if k := NewPoint(design, "", opts).CacheKey(); k != "" {
		t.Errorf("a point without a design key has key %q, want none", k)
	}
}

// TestCampaignIDPinned: a campaign id hashes its points' memo keys, so
// every id ever written to a warehouse depends on the key spelling. These
// literals were taken from the build before points carried their key.
func TestCampaignIDPinned(t *testing.T) {
	design := tinyDesign(1)
	for _, tc := range []struct {
		name string
		pts  []Point
		want string
	}{
		{"sweep", sweepPoints(design, KeyFor(design), 8, 8), "c88f16e69e8c50a5"},
		{"fixture", Points(nil, "fixture-tiny", flow.Options{TargetFreqGHz: 0.3}, []int64{0, 1, 2}), "72b64de6b2a22ee4"},
		{"uncached", Points(design, "", flow.Options{TargetFreqGHz: 0.3}, []int64{0, 1, 2}), "d94d12186c0f2fb7"},
	} {
		if got := ID(tc.pts); got != tc.want {
			t.Errorf("%s: campaign id %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRevisitHitCountCoherent: the revisit pass counts its hits once per
// pass, and an all-hit Run of n points still moves Stats().Hits and the
// campaign.cache.hit counter by exactly n. Snapshots taken meanwhile, by
// a reader racing all-hit and cold Runs (run under -race), stay coherent:
// coalesced never exceeds hits, and lookups never go backwards.
func TestRevisitHitCountCoherent(t *testing.T) {
	design := tinyDesign(1)
	eng, pts := revisitFixture(t)
	before, hits := eng.Cache().Stats(), metrics.Get("campaign.cache.hit")
	warm(t, eng, pts)
	after := eng.Cache().Stats()
	if got := after.Hits - before.Hits; got != int64(len(pts)) {
		t.Errorf("all-hit Run of %d points moved Stats().Hits by %d", len(pts), got)
	}
	if got := metrics.Get("campaign.cache.hit") - hits; got != int64(len(pts)) {
		t.Errorf("all-hit Run of %d points moved campaign.cache.hit by %d", len(pts), got)
	}
	if after.Misses != before.Misses || after.Coalesced != before.Coalesced {
		t.Errorf("all-hit Run moved misses or coalesced: %+v -> %+v", before, after)
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prev CacheStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := eng.Cache().Stats()
			if st.Coalesced > st.Hits {
				t.Errorf("snapshot torn: coalesced %d > hits %d", st.Coalesced, st.Hits)
				return
			}
			if st.Hits+st.Misses < prev.Hits+prev.Misses {
				t.Errorf("lookups went backwards: %+v after %+v", st, prev)
				return
			}
			prev = st
		}
	}()
	// Cold twins coalesce while all-hit passes count in bulk beside them.
	cold := Points(design, KeyFor(design), flow.Options{TargetFreqGHz: 0.9}, []int64{1, 2})
	cold = append(cold, cold...)
	var runs sync.WaitGroup
	for r := 0; r < 4; r++ {
		runs.Add(1)
		go func(r int) {
			defer runs.Done()
			batch := pts
			if r == 0 {
				batch = cold
			}
			for i := 0; i < 20; i++ {
				if _, err := eng.Run(context.Background(), batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	runs.Wait()
	close(stop)
	reader.Wait()
}
