package repro

import (
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/predict"
)

// keyTier is a campaign tier that serves nothing and keeps every entry
// written through it: the key each computed point was memoized under,
// beside the options its flow ran at.
type keyTier struct {
	mu   sync.Mutex
	ents []campaign.Entry
}

func (k *keyTier) Load(string) (campaign.Entry, bool) { return campaign.Entry{}, false }

func (k *keyTier) Store(e campaign.Entry) {
	k.mu.Lock()
	k.ents = append(k.ents, e)
	k.mu.Unlock()
}

// TestPointKeyIdentityAcrossBuilders: every builder of campaign points
// keys them as design key, NUL, canonical options key — the spelling
// journals, store WALs and campaign ids on disk were written under. The
// sweep's points are checked directly; the core, noise and predict
// builders keep theirs inside, so their keys are read where the engine
// writes computed points through to a tier.
func TestPointKeyIdentityAcrossBuilders(t *testing.T) {
	design := NewDesign(DefaultLibrary(), TinyDesign(1))
	designKey := campaign.KeyFor(design)

	pts, err := CampaignPoints(SweepConfig{
		Design: design, Base: FlowOptions{Utilization: 0.7},
		Freqs: []float64{0.3, 0.55}, Seeds: []int64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if want := designKey + "\x00" + p.Options().Key(); p.CacheKey() != want {
			t.Errorf("CampaignPoints[%d]: key %q, want %q", i, p.CacheKey(), want)
		}
	}
	// Taken from the last build with speculative stage overlap.
	if id := campaign.ID(pts); id != "9ad7c5963e910184" {
		t.Errorf("CampaignPoints campaign id %s, want 9ad7c5963e910184", id)
	}

	for _, b := range []struct {
		name string
		run  func(c *campaign.Cache)
	}{
		{"core.Search", func(c *campaign.Cache) {
			if _, err := core.Search(design, flow.Options{}, flow.Constraints{},
				core.SearchConfig{Freqs: []float64{0.3, 0.5}, Iterations: 2, Licenses: 2, Seed: 1, Cache: c}); err != nil {
				t.Fatal(err)
			}
		}},
		{"predict.CampaignWith", func(c *campaign.Cache) {
			predict.CampaignWith([]*Design{design}, []flow.Options{{TargetFreqGHz: 0.4, SynthEffort: 2}}, 2,
				predict.CampaignConfig{Workers: 2, Cache: c})
		}},
	} {
		tier := &keyTier{}
		c := campaign.NewCache(0)
		c.SetTier(tier)
		b.run(c)
		if len(tier.ents) == 0 {
			t.Errorf("%s computed no cached point", b.name)
		}
		for _, e := range tier.ents {
			if want := designKey + "\x00" + e.Res.Options.Key(); e.Key != want {
				t.Errorf("%s: point ran at %q but was keyed %q", b.name, want, e.Key)
			}
		}
	}
}

// TestSweepSpecCampaignIDs pins the campaign id every front end derives
// from one spec, per design name: sprflow, campd and the metricsd front
// door expand a SweepSpec, so a change to the design table or the
// frequency × seed cross moves these ids (they are the ids the commit
// before SweepSpec derived from campd's flags).
func TestSweepSpecCampaignIDs(t *testing.T) {
	for design, want := range map[string]string{
		"pulpino":    "ef8d97318198b9b2",
		"cpu":        "5dd6ad12ee307e5c",
		"artificial": "a2e3ffd6bc9a62fe",
		"tiny":       "42400a54f6c06f58",
	} {
		scfg, err := SweepSpec{Design: design, Freq: 0.5, Seed: 1, Seeds: 2, Effort: 2}.Config()
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		pts, err := CampaignPoints(scfg)
		if err != nil {
			t.Fatalf("%s: %v", design, err)
		}
		if got := campaign.ID(pts); len(pts) != 6 || got != want {
			t.Errorf("%s: %d points, campaign id %s; want 6, %s", design, len(pts), got, want)
		}
	}
	if _, err := (SweepSpec{Design: "nope", Freq: 0.5, Seeds: 2}).Config(); err == nil {
		t.Fatal("an unknown design name must error")
	}
}
