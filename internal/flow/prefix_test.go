package flow

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestPrefixReuseSpansAndRecords: a second run of a seed at another target
// frequency takes everything but its slack from the first: it computes no
// stage. It emits the step records and returns the result a plain run
// does, its six reused stage spans say so, and flow.prefix.reused counts
// it.
func TestPrefixReuseSpansAndRecords(t *testing.T) {
	d := tiny(1)
	donorOpts, opts := Options{TargetFreqGHz: 0.3, Seed: 2}, Options{TargetFreqGHz: 0.5, Seed: 2}
	record := func(recs *[]StepRecord) Observer {
		return ObserverFunc(func(r StepRecord) { *recs = append(*recs, r) })
	}
	var gotRecs, wantRecs []StepRecord
	donor := Run(d, donorOpts)
	want := RunObserved(d, opts, record(&wantRecs))

	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()
	memo := NewPrefixes()
	before := metrics.Get("flow.prefix.reused")
	if got, _ := RunCfg(context.Background(), d, donorOpts, RunConfig{Prefixes: memo}); !reflect.DeepEqual(got, donor) {
		t.Fatal("the run that stores the prefix differs from flow.Run")
	}
	got, err := RunCfg(context.Background(), d, opts, RunConfig{Observer: record(&gotRecs), Prefixes: memo})
	if err != nil {
		t.Fatal(err)
	}
	trace.Disable()
	if got.Synth.Upsized != 0 {
		t.Fatalf("tiny at 0.5 GHz resized %d cells; the test needs a keyed run", got.Synth.Upsized)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the run that reused a prefix differs from flow.Run")
	}
	if !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Error("the run that reused a prefix emitted other step records than flow.Run")
	}
	if n := metrics.Get("flow.prefix.reused") - before; n != 1 {
		t.Errorf("flow.prefix.reused moved by %d, want 1", n)
	}

	spans, _ := tr.Snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var runs []uint64
	for _, s := range spans {
		if s.Name == "flow.run" {
			runs = append(runs, s.ID)
		}
	}
	if len(runs) != 2 {
		t.Fatalf("%d flow.run spans, want 2", len(runs))
	}
	reused := func(run uint64) []string {
		var names []string
		for _, s := range spans {
			if s.Parent == run && slices.Contains(s.Attrs, trace.Attr{Key: "reused", Val: "true"}) {
				names = append(names, s.Name)
			}
		}
		return names
	}
	if r := reused(runs[0]); len(r) != 0 {
		t.Errorf("the donor run's spans %v are tagged reused", r)
	}
	if r, w := reused(runs[1]), []string{"flow.synth", "flow.place", "flow.cts", "flow.groute", "flow.droute", "flow.sta"}; !slices.Equal(r, w) {
		t.Errorf("reused spans %v, want %v", r, w)
	}
}
