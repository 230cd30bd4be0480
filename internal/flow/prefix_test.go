package flow

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/netlist"
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

// heapBytes returns the bytes f allocates. The count is process-wide, so
// it is taken with the collector off: every cycle wakes the runtime's
// cleanup of unique's maps (net/netip registers one), which allocates on
// its own goroutine. A window in which the runtime started an OS thread,
// which allocates 5.5 KB for its m and two g's, is taken again.
func heapBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	threads := pprof.Lookup("threadcreate")
	for try := 0; ; try++ {
		runtime.GC()
		n := threads.Count()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if threads.Count() == n || try == 4 {
			return after.TotalAlloc - before.TotalAlloc
		}
	}
}

// TestAdoptedRunAllocs: a run that adopts its seed's prefix takes the
// donor's netlist storage under a header of its own, so it allocates less
// than half of what one Clone of that netlist does (a Clone was 86 % of an
// adopted tiny run's bytes).
func TestAdoptedRunAllocs(t *testing.T) {
	d, ctx, memo := tiny(1), context.Background(), NewPrefixes()
	run := func(ghz float64) *Result {
		res, err := RunCfg(ctx, d, Options{TargetFreqGHz: ghz, Seed: 2}, RunConfig{Prefixes: memo})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	donor := run(0.3)
	reused := metrics.Get("flow.prefix.reused")
	run(0.45)
	if metrics.Get("flow.prefix.reused") != reused+1 {
		t.Fatal("the 0.45 GHz run did not adopt the 0.3 GHz run's prefix")
	}
	var clone *netlist.Netlist
	cloneBytes := heapBytes(func() { clone = donor.Netlist.Clone() })
	adoptBytes := heapBytes(func() { run(0.45) })
	t.Logf("adopted run %d bytes, one Clone of its %d-cell netlist %d", adoptBytes, clone.NumCells(), cloneBytes)
	if adoptBytes >= cloneBytes/2 {
		t.Errorf("an adopted run allocated %d bytes, want under half of a Clone's %d", adoptBytes, cloneBytes)
	}
}
